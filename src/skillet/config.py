"""Runtime configuration knobs, overridable from a JSON config file."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .router import RouterConfig


@dataclass(frozen=True)
class PlannerConfig:
    max_steps: int = 100
    backend_retries: int = 3
    single_worker: bool = True
    # ablation switch: when False, workflow phases hide no tool but still refuse calls
    apply_tool_filters: bool = True


@dataclass(frozen=True)
class WorkspaceConfig:
    command_allowlist: tuple[str, ...] = ()
    command_timeout_s: float = 60.0
    output_truncate_bytes: int = 32768


@dataclass(frozen=True)
class RunConfig:
    router: RouterConfig = field(default_factory=RouterConfig)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    workspace: WorkspaceConfig = field(default_factory=WorkspaceConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return cls().merged(raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def merged(self, raw: dict) -> "RunConfig":
        """This config with the overrides of `raw`, an object of sections as
        a config file holds them. ConfigError for an unknown section or key,
        a section that is not an object, or a value whose JSON type does not
        fit its field; an int is fine for a float."""
        return _fit("config", RunConfig, raw, self)


# resolving the annotations costs far more than a merge, so once per class
_field_types = cache(get_type_hints)


def _fit(name: str, kind: type, value: object, current: object) -> object:
    """`value` as the field `name` of type `kind` holds it, in place of its
    `current` value; a config dataclass takes an object of overrides of its
    fields. ConfigError when the value does not fit; a bool is not an int."""
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, not {value!r}")
        types = _field_types(kind)
        if unknown := sorted(set(value) - set(types)):
            raise ConfigError(f"unknown {name} keys: {unknown}")
        fitted = {key: _fit(f"{name}.{key}", types[key], item, getattr(current, key))
                  for key, item in value.items()}
        return replace(current, **fitted)
    if kind == tuple[str, ...]:
        if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
            return tuple(value)
        raise ConfigError(f"{name} must be a list of strings, not {value!r}")
    if type(value) is kind or (kind is float and type(value) is int):
        return value
    raise ConfigError(f"{name} must be of type {kind.__name__}, not {value!r}")
