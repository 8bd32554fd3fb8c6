"""Routing scores, thresholds, ordering, and policy exclusions."""

import json
from pathlib import Path

import pytest

from skillet import DelegatedTask, RouterConfig, SkillRegistry, route, score_candidate
from skillet.router import task_tokens


def write_skill(tmp_path: Path, skill_id: str, task_types: list[str],
                triggers: list[str], policy: dict | None = None) -> Path:
    pkg = tmp_path / skill_id
    pkg.mkdir()
    (pkg / "manifest.json").write_text(json.dumps({
        "skill_id": skill_id,
        "version": "0.1.0",
        "description": skill_id,
        "task_types": task_types,
        "trigger_keywords": triggers,
        "tools": [],
        "hooks": [],
        "policy": policy or {},
    }))
    (pkg / "config.json").write_text("{}")
    return pkg


def task(text="fix the bug", task_type="code_repair", root=Path("/")):
    return DelegatedTask(task_text=text, task_type=task_type,
                         workspace_root=root, done_when="")


@pytest.fixture
def toy_registry(tmp_path):
    registry = SkillRegistry()
    registry.load_skill_package(write_skill(
        tmp_path, "mend", ["code_repair"], ["bug", "fix", "failing", "patch"]))
    registry.load_skill_package(write_skill(
        tmp_path, "scribe", ["docs"], ["document", "readme"]))
    return registry


class TestScoreFormula:
    def test_type_match_only(self, toy_registry):
        manifest = toy_registry.lookup("mend")
        score = score_candidate(manifest, task(text="please handle this"))
        assert score == pytest.approx(0.6)

    def test_no_match_at_all(self, toy_registry):
        manifest = toy_registry.lookup("mend")
        assert score_candidate(manifest, task(text="write a poem", task_type="poetry")) == 0.0

    def test_full_match_is_one(self, toy_registry):
        manifest = toy_registry.lookup("mend")
        score = score_candidate(manifest, task(text="fix the bug in the failing patch"))
        assert score == pytest.approx(1.0)

    def test_keyword_overlap_is_fractional(self, toy_registry):
        manifest = toy_registry.lookup("mend")
        score = score_candidate(manifest, task(text="fix the bug", task_type="other"))
        assert score == pytest.approx(0.4 * 2 / 4)

    def test_empty_trigger_set_contributes_zero(self, tmp_path):
        registry = SkillRegistry()
        registry.load_skill_package(write_skill(tmp_path, "quiet", ["code_repair"], []))
        assert score_candidate(registry.lookup("quiet"), task()) == pytest.approx(0.6)

    def test_tokens_are_lowercased_words(self):
        assert task_tokens("Fix the BUG, quickly!") == {"fix", "the", "bug", "quickly"}

    def test_policy_conflict_zeroes_score(self, tmp_path):
        registry = SkillRegistry()
        registry.load_skill_package(write_skill(
            tmp_path, "writer", ["code_repair"], ["bug"],
            policy={"requires_writable_workspace": True}))
        missing_root = tmp_path / "never-created"
        assert score_candidate(registry.lookup("writer"),
                               task(root=missing_root)) == 0.0

    def test_custom_weights(self, toy_registry):
        manifest = toy_registry.lookup("mend")
        config = RouterConfig(w_type=0.9, w_keyword=0.1)
        assert score_candidate(manifest, task(text="nothing relevant"), config) \
            == pytest.approx(0.9)


class TestRoute:
    def test_single_match_above_threshold(self, toy_registry):
        routed = route(toy_registry, task())
        # "fix the bug" hits 2 of 4 triggers: 0.6 + 0.4 * 0.5 = 0.8
        assert routed.entries == [("mend", pytest.approx(0.8))]

    def test_empty_set_is_valid(self, toy_registry):
        routed = route(toy_registry, task(text="summarize this", task_type="summary"))
        assert routed.skill_ids() == []

    def test_tie_break_by_skill_id(self, tmp_path):
        registry = SkillRegistry()
        registry.load_skill_package(write_skill(tmp_path, "zeta", ["code_repair"], []))
        registry.load_skill_package(write_skill(tmp_path, "acme", ["code_repair"], []))
        routed = route(registry, task(text="no keywords here"))
        assert routed.skill_ids() == ["acme", "zeta"]
        assert routed.entries[0][1] == routed.entries[1][1] == pytest.approx(0.6)

    def test_threshold_is_inclusive_and_configurable(self, toy_registry):
        # "fix it" hits 1 of 4 triggers: 0.6 + 0.4 * 0.25 = 0.7
        at = RouterConfig(threshold=0.7)
        assert route(toy_registry, task(text="fix it"), at).skill_ids() == ["mend"]
        above = RouterConfig(threshold=0.71)
        assert route(toy_registry, task(text="fix it"), above).skill_ids() == []

    def test_routing_is_pure(self, toy_registry):
        a = route(toy_registry, task())
        b = route(toy_registry, task())
        assert a.entries == b.entries

    def test_monotonic_under_unrelated_skill(self, toy_registry, tmp_path):
        before = route(toy_registry, task()).skill_ids()
        toy_registry.load_skill_package(write_skill(
            tmp_path, "painter", ["art"], ["fresco"]))
        assert route(toy_registry, task()).skill_ids() == before

    def test_runtime_config_carries_router_overrides(self, toy_registry):
        from skillet import RunConfig
        config = RunConfig.from_dict(
            {"router": {"threshold": 0.2, "w_type": 0.5, "w_keyword": 0.5}})
        assert config.router.threshold == 0.2
        # scribe 0.5 + 0.5 * 1/2; mend 0.5 * 2/4 clears only the lowered threshold
        routed = route(toy_registry, task(text="fix the bug, document it", task_type="docs"),
                       config.router)
        assert routed.entries == [("scribe", pytest.approx(0.75)),
                                  ("mend", pytest.approx(0.25))]

    def test_rescaled_weights_keep_ordering(self, tmp_path):
        registry = SkillRegistry()
        registry.load_skill_package(write_skill(tmp_path, "typed", ["code_repair"], ["x"]))
        registry.load_skill_package(write_skill(
            tmp_path, "wordy", ["other"], ["fix", "bug"]))
        t = task(text="fix the bug x")
        base = RouterConfig(threshold=0.0)
        scaled = RouterConfig(threshold=0.0, w_type=base.w_type * 7, w_keyword=base.w_keyword * 7)
        assert (route(registry, t, base).skill_ids()
                == route(registry, t, scaled).skill_ids())
