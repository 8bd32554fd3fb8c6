"""Run config loading: every override is checked against RunConfig's fields."""

import pytest

from skillet import RunConfig
from skillet.errors import ConfigError


class TestFromDict:
    def test_an_unknown_section_is_refused(self):
        with pytest.raises(ConfigError, match="planer"):
            RunConfig.from_dict({"planer": {"max_steps": 1}})

    def test_a_section_that_is_not_an_object_is_refused(self):
        with pytest.raises(ConfigError, match="config.planner must be an object"):
            RunConfig.from_dict({"planner": 5})

    def test_a_string_allowlist_is_refused(self):
        with pytest.raises(ConfigError, match="command_allowlist must be a list of strings"):
            RunConfig.from_dict({"workspace": {"command_allowlist": "python3"}})

    def test_a_value_of_the_wrong_type_is_refused(self):
        with pytest.raises(ConfigError, match="max_steps must be of type int"):
            RunConfig.from_dict({"planner": {"max_steps": "5"}})

    def test_a_bool_is_not_an_int_and_an_int_is_a_float(self):
        with pytest.raises(ConfigError, match="max_steps must be of type int"):
            RunConfig.from_dict({"planner": {"max_steps": True}})
        config = RunConfig.from_dict({"workspace": {"command_timeout_s": 5,
                                                    "command_allowlist": ["python3"]}})
        assert config.workspace.command_timeout_s == 5
        assert config.workspace.command_allowlist == ("python3",)
