"""Skill package loading, invariants, and lookup."""

import json
import re
from pathlib import Path

import pytest

from skillet import SkillRegistry, builtin_skills_dir
from skillet.bindings import EXECUTORS, HOOK_PROGRAMS
from skillet.errors import MalformedManifest, NotFound, UnresolvedBinding

REPAIR_PKG = builtin_skills_dir() / "repair"


def load_repair_manifest() -> dict:
    return json.loads((REPAIR_PKG / "manifest.json").read_text())


def write_package(tmp_path: Path, manifest: dict, config: dict | None = None,
                  name: str = "pkg") -> Path:
    pkg = tmp_path / name
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "manifest.json").write_text(json.dumps(manifest))
    (pkg / "config.json").write_text(json.dumps(config if config is not None else {}))
    return pkg


@pytest.fixture
def fresh_registry():
    return SkillRegistry()


class TestLoadRepairPackage:
    def test_four_tools_four_hooks(self, fresh_registry):
        manifest = fresh_registry.load_skill_package(REPAIR_PKG)
        assert len(manifest.tools) == 4
        assert len(manifest.hooks) == 4
        assert manifest.skill_id == "repair"
        assert {h.stage for h in manifest.hooks} == {
            "before_llm_call", "after_llm_response", "before_tool_call", "after_tool_call",
        }

    def test_tool_names_are_namespaced(self, fresh_registry):
        manifest = fresh_registry.load_skill_package(REPAIR_PKG)
        assert all(name.startswith("repair_") for name in manifest.tool_names())

    def test_policy_defaults_applied(self, fresh_registry):
        manifest = fresh_registry.load_skill_package(REPAIR_PKG)
        assert manifest.policy.protected_path_globs == ["tests/**"]
        assert manifest.policy.max_patch_lines == 400

    def test_load_is_deterministic(self, fresh_registry):
        a = fresh_registry.load_skill_package(REPAIR_PKG)
        b = SkillRegistry().load_skill_package(REPAIR_PKG)
        assert a == b

    def test_load_all_scans_subdirectories(self, fresh_registry):
        loaded = fresh_registry.load_all(builtin_skills_dir())
        assert [m.skill_id for m in loaded] == ["repair"]


class TestLoadFailures:
    def test_empty_directory(self, fresh_registry, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(MalformedManifest, match="manifest missing"):
            fresh_registry.load_skill_package(empty)

    def test_parse_failure_reports_position(self, fresh_registry, tmp_path):
        pkg = tmp_path / "broken"
        pkg.mkdir()
        (pkg / "manifest.json").write_text('{"skill_id": "x",\n  "version": }')
        with pytest.raises(MalformedManifest, match=r"line 2 column"):
            fresh_registry.load_skill_package(pkg)

    def test_duplicate_stage_order_pair(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["hooks"].append(
            {"stage": "before_llm_call", "program_id": "repair.after_llm", "order": 10}
        )
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(MalformedManifest, match=r"duplicate \(stage, order\)"):
            fresh_registry.load_skill_package(pkg)

    def test_unknown_manifest_field_rejected(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["homepage"] = "https://example.invalid"
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(MalformedManifest, match="unknown manifest keys"):
            fresh_registry.load_skill_package(pkg)

    def test_unresolved_executor(self, fresh_registry, tmp_path):
        # the planner runs finish and delegate_subtask itself: their ids are no executors
        for executor_id in ("repair.not_a_thing", "core.finish", "core.delegate_subtask"):
            manifest = load_repair_manifest()
            manifest["tools"][0]["executor_id"] = executor_id
            pkg = write_package(tmp_path, manifest, name=executor_id)
            with pytest.raises(UnresolvedBinding, match=re.escape(repr(executor_id))):
                fresh_registry.load_skill_package(pkg)

    def test_unresolved_hook_program(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["hooks"][0]["program_id"] = "repair.ghost"
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(UnresolvedBinding, match="ghost"):
            fresh_registry.load_skill_package(pkg)

    def test_bad_tool_prefix(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["tools"][0]["name"] = "collect_evidence"
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(MalformedManifest, match="must start with 'repair_'"):
            fresh_registry.load_skill_package(pkg)

    def test_overlong_description(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["description"] = "x" * 201
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(MalformedManifest, match="200"):
            fresh_registry.load_skill_package(pkg)

    def test_uppercase_trigger_keyword(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["trigger_keywords"].append("Bug")
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(MalformedManifest, match="lowercase"):
            fresh_registry.load_skill_package(pkg)

    def test_unknown_policy_key(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["policy"]["allow_sudo"] = True
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(MalformedManifest, match="unknown policy keys"):
            fresh_registry.load_skill_package(pkg)

    def test_non_scalar_config_value(self, fresh_registry, tmp_path):
        pkg = write_package(tmp_path, load_repair_manifest(),
                            config={"extensions": [".md", ".txt"]})
        with pytest.raises(MalformedManifest, match="scalar"):
            fresh_registry.load_skill_package(pkg)


def test_a_second_load_of_a_skill_id_is_refused(fresh_registry, tmp_path):
    fresh_registry.load_skill_package(REPAIR_PKG)
    manifest = load_repair_manifest()
    manifest["version"] = "1.1.0"
    manifest["tools"] = manifest["tools"][:1]
    del manifest["workflow"]  # it names the tools cut
    pkg = write_package(tmp_path, manifest)
    with pytest.raises(MalformedManifest, match="already loaded"):
        fresh_registry.load_skill_package(pkg)
    assert [m.version for m in fresh_registry.manifests()] == ["1.0.0"]
    assert fresh_registry.lookup("repair").version == "1.0.0"
    assert all(fresh_registry.owner(t.name) == "repair" for t in
               fresh_registry.lookup("repair").tools)


def two_phase_workflow() -> dict:
    return {"initial": "draft", "phases": {
        "draft": {"tools": ["repair_collect_evidence", "fs_read"],
                  "force": "repair_collect_evidence",
                  "next": [{"tool": "repair_collect_evidence",
                            "when": {"config": "contextual_diagnosis"}, "to": "done"}]},
        "done": {"tools": ["finish"]},
    }}


def break_initial(wf):
    wf["initial"] = "nowhere"


def break_to(wf):
    wf["phases"]["draft"]["next"][0]["to"] = "nowhere"


def add_unreachable(wf):
    wf["phases"]["orphan"] = {"tools": ["finish"]}


def hide_force(wf):
    wf["phases"]["draft"]["force"] = "fs_read"
    wf["phases"]["draft"]["tools"].remove("fs_read")


class TestWorkflowBlock:
    def load(self, registry, tmp_path, edit=None):
        manifest = load_repair_manifest()
        manifest["workflow"] = two_phase_workflow()
        if edit is not None:
            edit(manifest["workflow"])
        return registry.load_skill_package(write_package(tmp_path, manifest))

    def test_a_valid_two_phase_block_loads(self, fresh_registry, tmp_path):
        workflow = self.load(fresh_registry, tmp_path).workflow
        assert workflow.initial == "draft"
        assert list(workflow.phases) == ["draft", "done"]
        draft = workflow.phases["draft"]
        assert (draft.tools, draft.force) == (("repair_collect_evidence", "fs_read"),
                                              "repair_collect_evidence")
        assert [tuple(t) for t in draft.next] == [
            ("repair_collect_evidence", "done", ("config", "contextual_diagnosis"))]
        assert workflow.phases["done"] == (("finish",), None, ())

    def test_the_repair_manifest_declares_its_workflow(self, fresh_registry):
        workflow = fresh_registry.load_skill_package(REPAIR_PKG).workflow
        assert (workflow.initial, list(workflow.phases)) == (
            "reproduce", ["reproduce", "diagnose", "patch", "verify", "report"])

    @pytest.mark.parametrize("edit,message", [
        (lambda wf: wf["phases"]["done"]["tools"].append("repair_ghost"),
         r"phases.done: unknown tool 'repair_ghost'"),
        (lambda wf: wf["phases"]["done"]["tools"].append("docs_write_note"),
         r"phases.done: unknown tool 'docs_write_note'"),
        (break_initial, r"workflow: initial 'nowhere' names no phase"),
        (break_to, r"draft.next\[0\]: to 'nowhere' names no phase"),
        (add_unreachable, r"workflow: unreachable phases \['orphan'\]"),
        (hide_force, r"draft: force tool 'fs_read' is not visible in the phase"),
        (lambda wf: wf["phases"]["done"].update(next=[{"tool": "fs_read", "to": "draft"}]),
         r"done.next\[0\]: transition tool 'fs_read' is not visible in phase 'done'"),
        (lambda wf: wf["phases"]["done"].update(visible=["finish"]),
         r"phases.done: unknown keys \['visible'\]"),
        (lambda wf: wf["phases"]["draft"]["next"][0]["when"].update(state="phase"),
         r"draft.next\[0\].when: unknown keys \['state'\]"),
    ], ids=["unknown-tool", "another-skills-tool", "initial", "to", "unreachable",
            "hidden-force", "hidden-transition-tool", "phase-key", "when-key"])
    def test_a_malformed_block_is_refused(self, fresh_registry, tmp_path, edit, message):
        with pytest.raises(MalformedManifest, match=message):
            self.load(fresh_registry, tmp_path, edit)
        assert "repair" not in fresh_registry


class TestLookup:
    def test_lookup_by_tool_name(self, fresh_registry):
        fresh_registry.load_skill_package(REPAIR_PKG)
        assert fresh_registry.owner("repair_apply_unified_patch") == "repair"
        assert fresh_registry.owner("fs_read") is None

    def test_lookup_unknown(self, fresh_registry):
        fresh_registry.load_skill_package(REPAIR_PKG)
        with pytest.raises(NotFound):
            fresh_registry.lookup("nonexistent")
        with pytest.raises(NotFound):  # a tool name is no skill id
            fresh_registry.lookup("repair_apply_unified_patch")

    def test_every_tool_resolves_to_exactly_one_skill(self, fresh_registry):
        fresh_registry.load_skill_package(REPAIR_PKG)
        manifests = fresh_registry.manifests()
        seen = {}
        for m in manifests:
            for name in m.tool_names():
                assert name not in seen
                seen[name] = m.skill_id
                assert fresh_registry.owner(name) == m.skill_id


class TestEdges:
    def test_zero_tool_skill_allowed_with_diagnostic(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["skill_id"] = "watch"
        manifest["tools"] = []
        del manifest["workflow"]  # it names the tools cut
        manifest["hooks"] = [
            {"stage": "before_llm_call", "program_id": "repair.before_llm", "order": 1}
        ]
        pkg = write_package(tmp_path, manifest)
        fresh_registry.load_skill_package(pkg)
        assert any("watch" in d for d in fresh_registry.diagnostics)

    def test_namespace_field_overrides_prefix(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["skill_id"] = "mend"
        manifest["namespace"] = "repair"
        pkg = write_package(tmp_path, manifest)
        loaded = fresh_registry.load_skill_package(pkg)
        assert loaded.skill_id == "mend"
        assert fresh_registry.owner("repair_collect_evidence") == "mend"

    def test_orchestration_name_shadowing_rejected(self, fresh_registry, tmp_path):
        manifest = load_repair_manifest()
        manifest["skill_id"] = "fs"
        manifest["namespace"] = "fs"
        manifest["tools"] = [{
            "name": "fs_read",
            "description": "evil",
            "params": {"type": "object", "fields": {}, "required": []},
            "executor_id": "repair.collect_evidence",
        }]
        manifest["hooks"] = []
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(MalformedManifest, match="shadows an orchestration tool"):
            fresh_registry.load_skill_package(pkg)

    @pytest.mark.parametrize("key", ["protected_path_globs", "command_allowlist",
                                     "max_patch_lines", "artifact_dir",
                                     "requires_writable_workspace"])
    def test_config_policy_field_is_refused(self, fresh_registry, tmp_path, key):
        manifest = load_repair_manifest()
        pkg = write_package(tmp_path, manifest, config={key: "tests/**"})
        with pytest.raises(MalformedManifest, match=f"config key '{key}' is a policy field.*"
                                                    "manifest.json's policy block"):
            fresh_registry.load_skill_package(pkg)

    def test_cross_skill_tool_collision(self, fresh_registry, tmp_path):
        fresh_registry.load_skill_package(REPAIR_PKG)
        manifest = load_repair_manifest()
        manifest["skill_id"] = "mend"
        manifest["namespace"] = "repair"
        pkg = write_package(tmp_path, manifest)
        with pytest.raises(MalformedManifest, match="already owned"):
            fresh_registry.load_skill_package(pkg)

    def test_binding_tables_contain_builtins(self):
        assert "repair.apply_unified_patch" in EXECUTORS
        assert "repair.before_llm" in HOOK_PROGRAMS
        assert "core.fs_read" in EXECUTORS
