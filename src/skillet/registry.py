"""Skill package loading, validation, and lookup.

A skill package is a directory holding `manifest.json` (identity, triggers,
tool schemas, hook declarations, policy, and an optional `workflow`: the
skill's phases, which the hook pipeline runs, checked whole at load) and
`config.json` (a flat scalar map of the skill's own parameters; a policy
field there is refused, so the manifest's policy block is the policy's one
source). Bindings are string ids resolved at load time against the
in-process tables in `bindings`.

The registry is built once at startup and read-only afterwards: each skill
id loads once, and a second package with the same id is refused. Skills are
looked up by id; a tool's skill comes from `owner`.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import bindings
from .errors import MalformedManifest, NotFound, UnresolvedBinding
from .schema import ActionSchema, parse_param_spec
from .workspace import orchestration_schemas

log = logging.getLogger(__name__)

HOOK_STAGES = (
    "before_llm_call",
    "after_llm_response",
    "before_tool_call",
    "after_tool_call",
)

# Tool names owned by the runtime itself; skill tools may not shadow them.
RESERVED_TOOL_NAMES = frozenset(schema.name for schema in orchestration_schemas())

_SEMVER_RE = re.compile(r"^\d+\.\d+\.\d+(?:[-+][0-9A-Za-z.-]+)?$")

_MANIFEST_KEYS = {
    "skill_id", "version", "description", "task_types", "trigger_keywords",
    "tools", "hooks", "policy", "namespace", "workflow",
}
_POLICY_KEYS = {
    "protected_path_globs", "command_allowlist", "max_patch_lines",
    "artifact_dir", "requires_writable_workspace",
}
_TOOL_KEYS = {"name", "description", "params", "executor_id"}
_HOOK_KEYS = {"stage", "program_id", "order"}
_WORKFLOW_KEYS = {"initial", "phases"}
_PHASE_KEYS = {"tools", "force", "next"}
_TRANSITION_KEYS = {"tool", "when", "to"}
_WHEN_KEYS = {"config", "result"}


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


class Transition(NamedTuple):
    tool: str
    to: str
    when: tuple[str, str] | None  # ("config" or "result", key): fires only if it is truthy


class Phase(NamedTuple):
    tools: tuple[str, ...]          # every tool visible in the phase
    force: str | None               # forced when the model replies without a call
    next: tuple[Transition, ...]    # the first match wins


class Workflow(NamedTuple):
    initial: str
    phases: dict[str, Phase]

    def next_phase(self, phase: str, record: dict, config: dict) -> str | None:
        """The phase a successful call's record moves `phase` to, or None."""
        sources = {"config": config, "result": record["result"]}
        for t in self.phases[phase].next:
            if t.tool == record["name"] and (t.when is None or sources[t.when[0]].get(t.when[1])):
                return t.to
        return None


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
    workflow: Workflow | None = None

    def hooks_for(self, stage: str) -> list[HookDeclaration]:
        return sorted((h for h in self.hooks if h.stage == stage), key=lambda h: h.order)

    def tool_names(self) -> list[str]:
        return [t.name for t in self.tools]


# every run loads its skills, so each check formats its message only on failure
def _expect_keys(raw, allowed: set[str], where: str, required: set[str] = frozenset(),
                 what: str = "") -> None:
    if not isinstance(raw, dict):
        raise MalformedManifest(f"{where}: {what}must be an object")
    if unknown := set(raw) - allowed:
        raise MalformedManifest(f"{where}: unknown {what}keys {sorted(unknown)}")
    if missing := required - set(raw):
        raise MalformedManifest(f"{where}: missing {what}keys {sorted(missing)}")


def _read_json(path: Path, what: str) -> dict:
    if not path.is_file():
        raise MalformedManifest(f"{what} missing: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedManifest(
            f"{what} {path.name}: parse failure at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise MalformedManifest(f"{what} {path.name}: top level must be an object")
    return data


def _parse_string_set(raw, where: str, lowercase_required: bool = False) -> set[str]:
    if not isinstance(raw, list):
        raise MalformedManifest(f"{where} must be a list of strings")
    out: set[str] = set()
    for item in raw:
        if not (isinstance(item, str) and item):
            raise MalformedManifest(f"{where} entries must be non-empty strings")
        if lowercase_required and item != item.lower():
            raise MalformedManifest(f"{where}: keyword {item!r} must be lowercase")
        out.add(item)
    return out


def _parse_policy(raw, where: str) -> PolicyConfig:
    _expect_keys(raw, _POLICY_KEYS, where, what="policy ")
    policy = PolicyConfig()
    for key in ("protected_path_globs", "command_allowlist"):
        if key in raw:
            setattr(policy, key, sorted(_parse_string_set(raw[key], f"{where}.{key}")))
    if "max_patch_lines" in raw:
        v = raw["max_patch_lines"]
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= 1):
            raise MalformedManifest(f"{where}.max_patch_lines must be an integer >= 1")
        policy.max_patch_lines = v
    if "artifact_dir" in raw:
        if not isinstance(raw["artifact_dir"], str):
            raise MalformedManifest(f"{where}.artifact_dir must be a string")
        policy.artifact_dir = raw["artifact_dir"]
    if "requires_writable_workspace" in raw:
        if not isinstance(raw["requires_writable_workspace"], bool):
            raise MalformedManifest(f"{where}.requires_writable_workspace must be a bool")
        policy.requires_writable_workspace = raw["requires_writable_workspace"]
    return policy


def _parse_config(raw: dict, where: str) -> dict:
    for key, value in raw.items():
        if not isinstance(key, str):
            raise MalformedManifest(f"{where}: config keys must be strings")
        if key in _POLICY_KEYS:
            raise MalformedManifest(f"{where}: config key {key!r} is a policy field; it "
                                    "belongs in manifest.json's policy block")
        if not (value is None or isinstance(value, (str, int, float, bool))):
            raise MalformedManifest(f"{where}: config value for {key!r} must be a scalar")
    return dict(raw)


def _parse_workflow(raw, where: str, own_tools: set[str]) -> Workflow:
    _expect_keys(raw, _WORKFLOW_KEYS, where, required=_WORKFLOW_KEYS)
    names = raw["phases"]
    if not (isinstance(names, dict) and names):
        raise MalformedManifest(f"{where}.phases must be a non-empty object")
    phases: dict[str, Phase] = {}
    for name, phase_raw in names.items():
        pwhere = f"{where}.phases.{name}"
        _expect_keys(phase_raw, _PHASE_KEYS, pwhere, required={"tools"})
        tools, next_raw = phase_raw["tools"], phase_raw.get("next", [])
        force = phase_raw.get("force")
        if not isinstance(tools, list) or not isinstance(next_raw, list):
            raise MalformedManifest(f"{pwhere}: tools and next must be lists")
        for tool in tools:
            if not (isinstance(tool, str) and (tool in own_tools or tool in RESERVED_TOOL_NAMES)):
                raise MalformedManifest(f"{pwhere}: unknown tool {tool!r}")
        if force is not None and force not in tools:
            raise MalformedManifest(f"{pwhere}: force tool {force!r} is not visible in the phase")
        transitions = []
        for i, t in enumerate(next_raw):
            _expect_keys(t, _TRANSITION_KEYS, f"{pwhere}.next[{i}]", required={"tool", "to"})
            if t["tool"] not in tools:
                raise MalformedManifest(f"{pwhere}.next[{i}]: transition tool {t['tool']!r} "
                                        f"is not visible in phase {name!r}")
            if not (isinstance(t["to"], str) and t["to"] in names):
                raise MalformedManifest(f"{pwhere}.next[{i}]: to {t['to']!r} names no phase")
            when = t.get("when")
            if when is not None:
                _expect_keys(when, _WHEN_KEYS, f"{pwhere}.next[{i}].when")
                if len(when) != 1 or not all(isinstance(k, str) for k in when.values()):
                    raise MalformedManifest(f"{pwhere}.next[{i}].when must test one config "
                                            "key or one result field")
                (when,) = when.items()
            transitions.append(Transition(t["tool"], t["to"], when))
        phases[name] = Phase(tuple(tools), force, tuple(transitions))
    initial = raw["initial"]
    if not (isinstance(initial, str) and initial in phases):
        raise MalformedManifest(f"{where}: initial {initial!r} names no phase")
    reached = {initial}
    for _ in phases:  # a path to a reachable phase takes at most len(phases) steps
        reached |= {t.to for name in reached for t in phases[name].next}
    if unreachable := set(phases) - reached:
        raise MalformedManifest(f"{where}: unreachable phases {sorted(unreachable)}")
    return Workflow(initial, phases)


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

        if manifest.skill_id in self._skills:
            raise MalformedManifest(
                f"{package_dir.name}: skill {manifest.skill_id!r} is already loaded")
        for name in manifest.tool_names():
            if (owner := self._by_tool.get(name)) is not None:
                raise MalformedManifest(f"tool {name!r} already owned by skill {owner!r}")
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
        _expect_keys(raw, _MANIFEST_KEYS, where, _MANIFEST_KEYS - {"namespace", "workflow"},
                     what="manifest ")

        skill_id = raw["skill_id"]
        if not (isinstance(skill_id, str) and re.fullmatch(r"[a-z][a-z0-9_]*", skill_id)):
            raise MalformedManifest(f"{where}: skill_id must be a lowercase identifier")
        version = raw["version"]
        if not (isinstance(version, str) and _SEMVER_RE.match(version)):
            raise MalformedManifest(f"{where}: version must be semver, got {version!r}")
        description = raw["description"]
        if not (isinstance(description, str) and len(description) <= 200):
            raise MalformedManifest(f"{where}: description must be a string of at most 200 chars")
        namespace = raw.get("namespace")
        if namespace is not None and not (isinstance(namespace, str) and namespace):
            raise MalformedManifest(f"{where}: namespace must be a non-empty string")

        task_types = _parse_string_set(raw["task_types"], f"{where}.task_types")
        triggers = _parse_string_set(
            raw["trigger_keywords"], f"{where}.trigger_keywords", lowercase_required=True
        )

        prefix = f"{namespace or skill_id}_"
        if not isinstance(raw["tools"], list):
            raise MalformedManifest(f"{where}: tools must be a list")
        tools: list[ActionSchema] = []
        seen_names: set[str] = set()
        for i, tool_raw in enumerate(raw["tools"]):
            twhere = f"{where}.tools[{i}]"
            _expect_keys(tool_raw, _TOOL_KEYS, twhere, required=_TOOL_KEYS)
            name = tool_raw["name"]
            if not (isinstance(name, str) and name.startswith(prefix)):
                raise MalformedManifest(f"{twhere}: tool name {name!r} must start with {prefix!r}")
            if name in seen_names:
                raise MalformedManifest(f"{twhere}: duplicate tool name {name!r}")
            if name in RESERVED_TOOL_NAMES:
                raise MalformedManifest(
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

        if not isinstance(raw["hooks"], list):
            raise MalformedManifest(f"{where}: hooks must be a list")
        hooks: list[HookDeclaration] = []
        orders_seen: set[tuple[str, int]] = set()
        for i, hook_raw in enumerate(raw["hooks"]):
            hwhere = f"{where}.hooks[{i}]"
            _expect_keys(hook_raw, _HOOK_KEYS, hwhere, required=_HOOK_KEYS)
            stage = hook_raw["stage"]
            if stage not in HOOK_STAGES:
                raise MalformedManifest(f"{hwhere}: stage must be one of {HOOK_STAGES}")
            order = hook_raw["order"]
            if not isinstance(order, int) or isinstance(order, bool):
                raise MalformedManifest(f"{hwhere}: order must be an integer")
            if (stage, order) in orders_seen:
                raise MalformedManifest(f"{hwhere}: duplicate (stage, order) = ({stage}, {order})")
            orders_seen.add((stage, order))
            program_id = hook_raw["program_id"]
            if program_id not in self.hook_programs:
                raise UnresolvedBinding(f"{hwhere}: unknown program_id {program_id!r}")
            hooks.append(HookDeclaration(stage=stage, program_id=program_id, order=order))

        return SkillManifest(
            skill_id=skill_id,
            version=version,
            description=description,
            task_types=task_types,
            trigger_keywords=triggers,
            tools=tools,
            hooks=hooks,
            policy=_parse_policy(raw["policy"], where),
            config=_parse_config(config_raw, where),
            workflow=(_parse_workflow(raw["workflow"], f"{where}.workflow", seen_names)
                      if "workflow" in raw else None),
        )

    # -- lookup ----------------------------------------------------------

    def lookup(self, skill_id: str) -> SkillManifest:
        try:
            return self._skills[skill_id]
        except KeyError:
            raise NotFound(f"no skill named {skill_id!r}") from None

    def owner(self, tool_name: str) -> str | None:
        """The skill_id that declares tool_name; None for the runtime's tools."""
        return self._by_tool.get(tool_name)

    def manifests(self) -> list[SkillManifest]:
        return sorted(self._skills.values(), key=lambda m: m.skill_id)

    def __contains__(self, skill_id: str) -> bool:
        return skill_id in self._skills
