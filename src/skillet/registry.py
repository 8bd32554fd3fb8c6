"""Skill package loading, validation, and lookup.

A skill package is a directory holding `manifest.json` (identity, triggers,
tool schemas, hook declarations, policy) and `config.json` (a flat scalar
map of deterministic policy parameters). Bindings are string ids resolved
at load time against the in-process tables in `bindings`.

The registry is built once at startup and read-only afterwards; reloading a
package replaces the prior version atomically.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import bindings
from .errors import DuplicateSkill, MalformedManifest, NotFound, UnresolvedBinding
from .schema import ActionSchema, parse_param_spec

log = logging.getLogger(__name__)

HOOK_STAGES = (
    "before_llm_call",
    "after_llm_response",
    "before_tool_call",
    "after_tool_call",
)

# Tool names owned by the runtime itself; skill tools may not shadow them.
RESERVED_TOOL_NAMES = frozenset(
    {"fs_read", "fs_write", "run_command", "delegate_subtask", "finish"}
)

_SEMVER_RE = re.compile(r"^\d+\.\d+\.\d+(?:[-+][0-9A-Za-z.-]+)?$")

_MANIFEST_KEYS = {
    "skill_id", "version", "description", "task_types", "trigger_keywords",
    "tools", "hooks", "policy", "namespace",
}
_POLICY_KEYS = {
    "protected_path_globs", "command_allowlist", "max_patch_lines",
    "artifact_dir", "requires_writable_workspace",
}
_TOOL_KEYS = {"name", "description", "params", "executor_id"}
_HOOK_KEYS = {"stage", "program_id", "order"}

# config.json keys that override the parsed PolicyConfig. Config values are
# scalars, so list-valued keys are comma-joined strings.
_CONFIG_POLICY_OVERRIDES = ("protected_path_globs", "command_allowlist",
                            "max_patch_lines", "artifact_dir")


@dataclass
class HookDeclaration:
    stage: str
    program_id: str
    order: int


@dataclass
class PolicyConfig:
    protected_path_globs: list[str] = field(default_factory=list)
    command_allowlist: list[str] = field(default_factory=list)
    max_patch_lines: int = 400
    artifact_dir: str = "out"
    requires_writable_workspace: bool = False


@dataclass
class SkillManifest:
    skill_id: str
    version: str
    description: str
    task_types: set[str]
    trigger_keywords: set[str]
    tools: list[ActionSchema]
    hooks: list[HookDeclaration]
    policy: PolicyConfig
    config: dict
    fingerprint: str = ""

    def hooks_for(self, stage: str) -> list[HookDeclaration]:
        return sorted((h for h in self.hooks if h.stage == stage), key=lambda h: h.order)

    def tool_names(self) -> list[str]:
        return [t.name for t in self.tools]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedManifest(message)


def _read_json(path: Path, what: str) -> dict:
    if not path.is_file():
        raise MalformedManifest(f"{what} missing: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedManifest(
            f"{what} {path.name}: parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _expect(isinstance(data, dict), f"{what} {path.name}: top level must be an object")
    return data


def _parse_string_set(raw, where: str, lowercase_required: bool = False) -> set[str]:
    _expect(isinstance(raw, list), f"{where} must be a list of strings")
    out: set[str] = set()
    for item in raw:
        _expect(isinstance(item, str) and item, f"{where} entries must be non-empty strings")
        if lowercase_required:
            _expect(item == item.lower(), f"{where}: keyword {item!r} must be lowercase")
        out.add(item)
    return out


def _parse_policy(raw, where: str) -> PolicyConfig:
    _expect(isinstance(raw, dict), f"{where}: policy must be an object")
    unknown = set(raw) - _POLICY_KEYS
    _expect(not unknown, f"{where}: unknown policy keys {sorted(unknown)}")
    policy = PolicyConfig()
    if "protected_path_globs" in raw:
        policy.protected_path_globs = sorted(
            _parse_string_set(raw["protected_path_globs"], f"{where}.protected_path_globs")
        )
    if "command_allowlist" in raw:
        policy.command_allowlist = sorted(
            _parse_string_set(raw["command_allowlist"], f"{where}.command_allowlist")
        )
    if "max_patch_lines" in raw:
        v = raw["max_patch_lines"]
        _expect(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                f"{where}.max_patch_lines must be an integer >= 1")
        policy.max_patch_lines = v
    if "artifact_dir" in raw:
        _expect(isinstance(raw["artifact_dir"], str), f"{where}.artifact_dir must be a string")
        policy.artifact_dir = raw["artifact_dir"]
    if "requires_writable_workspace" in raw:
        _expect(isinstance(raw["requires_writable_workspace"], bool),
                f"{where}.requires_writable_workspace must be a bool")
        policy.requires_writable_workspace = raw["requires_writable_workspace"]
    return policy


def _parse_config(raw: dict, where: str) -> dict:
    for key, value in raw.items():
        _expect(isinstance(key, str), f"{where}: config keys must be strings")
        _expect(
            value is None or isinstance(value, (str, int, float, bool)),
            f"{where}: config value for {key!r} must be a scalar",
        )
    return dict(raw)


def _apply_config_policy_overrides(policy: PolicyConfig, config: dict, where: str) -> None:
    for key in _CONFIG_POLICY_OVERRIDES:
        if key not in config:
            continue
        value = config[key]
        if key in ("protected_path_globs", "command_allowlist"):
            _expect(isinstance(value, str), f"{where}: config {key} must be a comma-joined string")
            setattr(policy, key, [p for p in (s.strip() for s in value.split(",")) if p])
        elif key == "max_patch_lines":
            _expect(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
                    f"{where}: config max_patch_lines must be an integer >= 1")
            policy.max_patch_lines = value
        else:
            _expect(isinstance(value, str), f"{where}: config artifact_dir must be a string")
            policy.artifact_dir = value


class SkillRegistry:
    """Loads, validates, and indexes skill packages.

    Safe for concurrent reads once populated; loading requires exclusive
    access (the runtime loads everything before draining wakeups).
    """

    def __init__(
        self,
        executors: dict[str, Callable] | None = None,
        hook_programs: dict[str, Callable] | None = None,
    ):
        self.executors = executors if executors is not None else bindings.EXECUTORS
        self.hook_programs = hook_programs if hook_programs is not None else bindings.HOOK_PROGRAMS
        self._skills: dict[str, SkillManifest] = {}
        self._by_tool: dict[str, str] = {}
        self.diagnostics: list[str] = []

    # -- loading ---------------------------------------------------------

    def load_skill_package(self, package_dir: str | Path) -> SkillManifest:
        package_dir = Path(package_dir)
        manifest_raw = _read_json(package_dir / "manifest.json", "manifest")
        config_raw = _read_json(package_dir / "config.json", "config") \
            if (package_dir / "config.json").exists() else {}

        manifest = self._parse_manifest(manifest_raw, config_raw, package_dir)

        prior = self._skills.get(manifest.skill_id)
        if prior is not None:
            if prior.version == manifest.version and prior.fingerprint != manifest.fingerprint:
                raise DuplicateSkill(
                    f"skill {manifest.skill_id} v{manifest.version} already loaded with different content"
                )
            # replace atomically: drop the old tool index entries, then swap
            for name in prior.tool_names():
                self._by_tool.pop(name, None)
        for name in manifest.tool_names():
            owner = self._by_tool.get(name)
            if owner is not None and owner != manifest.skill_id:
                raise MalformedManifest(
                    f"tool {name!r} already owned by skill {owner!r}"
                )
        self._skills[manifest.skill_id] = manifest
        for name in manifest.tool_names():
            self._by_tool[name] = manifest.skill_id
        if not manifest.tools:
            note = f"skill {manifest.skill_id} declares no tools (hooks only)"
            self.diagnostics.append(note)
            log.warning(note)
        return manifest

    def load_all(self, skills_dir: str | Path) -> list[SkillManifest]:
        """Load every package directory under skills_dir, sorted by name."""
        skills_dir = Path(skills_dir)
        if not skills_dir.is_dir():
            raise MalformedManifest(f"skills directory missing: {skills_dir}")
        loaded = []
        for entry in sorted(skills_dir.iterdir()):
            if entry.is_dir() and (entry / "manifest.json").exists():
                loaded.append(self.load_skill_package(entry))
        return loaded

    def _parse_manifest(self, raw: dict, config_raw: dict, package_dir: Path) -> SkillManifest:
        where = package_dir.name
        unknown = set(raw) - _MANIFEST_KEYS
        _expect(not unknown, f"{where}: unknown manifest keys {sorted(unknown)}")
        missing = _MANIFEST_KEYS - {"namespace"} - set(raw)
        _expect(not missing, f"{where}: missing manifest keys {sorted(missing)}")

        skill_id = raw["skill_id"]
        _expect(isinstance(skill_id, str) and re.fullmatch(r"[a-z][a-z0-9_]*", skill_id or ""),
                f"{where}: skill_id must be a lowercase identifier")
        version = raw["version"]
        _expect(isinstance(version, str) and _SEMVER_RE.match(version or ""),
                f"{where}: version must be semver, got {version!r}")
        description = raw["description"]
        _expect(isinstance(description, str) and len(description) <= 200,
                f"{where}: description must be a string of at most 200 chars")
        namespace = raw.get("namespace")
        if namespace is not None:
            _expect(isinstance(namespace, str) and namespace,
                    f"{where}: namespace must be a non-empty string")

        task_types = _parse_string_set(raw["task_types"], f"{where}.task_types")
        triggers = _parse_string_set(
            raw["trigger_keywords"], f"{where}.trigger_keywords", lowercase_required=True
        )

        prefix = f"{namespace or skill_id}_"
        _expect(isinstance(raw["tools"], list), f"{where}: tools must be a list")
        tools: list[ActionSchema] = []
        seen_names: set[str] = set()
        for i, tool_raw in enumerate(raw["tools"]):
            twhere = f"{where}.tools[{i}]"
            _expect(isinstance(tool_raw, dict), f"{twhere}: must be an object")
            unknown = set(tool_raw) - _TOOL_KEYS
            _expect(not unknown, f"{twhere}: unknown keys {sorted(unknown)}")
            missing = _TOOL_KEYS - set(tool_raw)
            _expect(not missing, f"{twhere}: missing keys {sorted(missing)}")
            name = tool_raw["name"]
            _expect(isinstance(name, str) and name.startswith(prefix),
                    f"{twhere}: tool name {name!r} must start with {prefix!r}")
            _expect(name not in seen_names, f"{twhere}: duplicate tool name {name!r}")
            _expect(name not in RESERVED_TOOL_NAMES,
                    f"{twhere}: tool name {name!r} shadows an orchestration tool")
            seen_names.add(name)
            executor_id = tool_raw["executor_id"]
            if executor_id not in self.executors:
                raise UnresolvedBinding(f"{twhere}: unknown executor_id {executor_id!r}")
            tools.append(ActionSchema(
                name=name,
                description=str(tool_raw["description"]),
                params=parse_param_spec(tool_raw["params"], f"{twhere}.params"),
                executor_id=executor_id,
            ))

        _expect(isinstance(raw["hooks"], list), f"{where}: hooks must be a list")
        hooks: list[HookDeclaration] = []
        orders_seen: set[tuple[str, int]] = set()
        for i, hook_raw in enumerate(raw["hooks"]):
            hwhere = f"{where}.hooks[{i}]"
            _expect(isinstance(hook_raw, dict), f"{hwhere}: must be an object")
            unknown = set(hook_raw) - _HOOK_KEYS
            _expect(not unknown, f"{hwhere}: unknown keys {sorted(unknown)}")
            missing = _HOOK_KEYS - set(hook_raw)
            _expect(not missing, f"{hwhere}: missing keys {sorted(missing)}")
            stage = hook_raw["stage"]
            _expect(stage in HOOK_STAGES, f"{hwhere}: stage must be one of {HOOK_STAGES}")
            order = hook_raw["order"]
            _expect(isinstance(order, int) and not isinstance(order, bool),
                    f"{hwhere}: order must be an integer")
            _expect((stage, order) not in orders_seen,
                    f"{hwhere}: duplicate (stage, order) = ({stage}, {order})")
            orders_seen.add((stage, order))
            program_id = hook_raw["program_id"]
            if program_id not in self.hook_programs:
                raise UnresolvedBinding(f"{hwhere}: unknown program_id {program_id!r}")
            hooks.append(HookDeclaration(stage=stage, program_id=program_id, order=order))

        policy = _parse_policy(raw["policy"], where)
        config = _parse_config(config_raw, where)
        _apply_config_policy_overrides(policy, config, where)

        fingerprint = hashlib.sha256(
            json.dumps({"manifest": raw, "config": config_raw}, sort_keys=True).encode()
        ).hexdigest()

        return SkillManifest(
            skill_id=skill_id,
            version=version,
            description=description,
            task_types=task_types,
            trigger_keywords=triggers,
            tools=tools,
            hooks=hooks,
            policy=policy,
            config=config,
            fingerprint=fingerprint,
        )

    # -- lookup ----------------------------------------------------------

    def lookup(self, key: str) -> SkillManifest:
        """Resolve a skill_id or a tool name to the owning manifest."""
        if key in self._skills:
            return self._skills[key]
        owner = self._by_tool.get(key)
        if owner is not None:
            return self._skills[owner]
        raise NotFound(f"no skill or tool named {key!r}")

    def manifests(self) -> list[SkillManifest]:
        return sorted(self._skills.values(), key=lambda m: m.skill_id)

    def __contains__(self, skill_id: str) -> bool:
        return skill_id in self._skills
