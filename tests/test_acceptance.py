"""Acceptance suite. One test per criterion; each prints a PASS line with its
measured evidence (run with -s to see them live).

The randomized criteria share a seeded script generator that mixes legal
workflow steps with adversarial ones (early finishes, out-of-phase calls,
malformed patches, empty check lists) across filtering and diagnosis modes.
"""

import json
import random
import shutil
import time
from pathlib import Path

import pytest

from skillet import (
    DelegatedTask,
    EventKind,
    RouterConfig,
    SessionStatus,
    SessionStore,
    SkillRegistry,
    UsageLog,
    builtin_skills_dir,
    route,
    score_candidate,
)
from skillet.bindings import EXECUTORS, HOOK_PROGRAMS
from skillet.errors import StepBudgetExhausted
from skillet.hooks import HookPipeline
from skillet.repair import PHASE_EDGES, RepairState
from skillet.workspace import orchestration_schemas

from conftest import (
    BUGGY_CALC,
    CALC_PATCH,
    CALC_TEST,
    REPAIR_DONE_WHEN,
    REPAIR_TASK_TEXT,
    finish_step,
    make_runtime,
    phase_sequence,
    read_jsonl,
    repair_script,
    submit_repair_task,
    tree_checksum,
)

REPORT = "ACCEPTANCE {n}: PASS — {detail}"


# -- randomized script machinery -------------------------------------------------

def make_tiny_workspace(root: Path) -> None:
    (root / "in").mkdir(parents=True)
    (root / "in" / "calc.py").write_text(BUGGY_CALC)
    (root / "in" / "fail.log").write_text(
        "AssertionError: add(2,3) returned -1\n"
    )


def tool(name, args):
    return {"respond": {"tool_call": {"name": name, "args": args}}}


def random_step(rng: random.Random, adversarial: bool) -> dict:
    menu = [
        (3, lambda: tool("repair_collect_evidence", {"log_path": "in/fail.log"})),
        (1, lambda: tool("repair_collect_evidence", {"log_path": "in/nothing.log"})),
        (3, lambda: tool("repair_apply_unified_patch",
                         {"target": "in/calc.py", "body": CALC_PATCH})),
        (1, lambda: tool("repair_apply_unified_patch",
                         {"target": "in/calc.py", "body": "no markers at all"})),
        (1, lambda: tool("repair_apply_unified_patch",
                         {"target": "tests/test_calc.py", "body": CALC_PATCH})),
        (3, lambda: tool("repair_run_verification", {"checks": [
            {"name": "calc-there", "type": "file_exists", "args": {"path": "in/calc.py"}}]})),
        (1, lambda: tool("repair_run_verification", {"checks": [
            {"name": "ghost", "type": "file_exists", "args": {"path": "in/ghost.py"}}]})),
        (1, lambda: tool("repair_run_verification", {"checks": []})),
        (2, lambda: tool("repair_write_artifact",
                         {"path": "out/report.md", "content": "note\n"})),
        (1, lambda: tool("fs_read", {"path": "in/calc.py"})),
        (2, lambda: {"respond": {"text": f"musing {rng.randint(0, 9)}"}}),
        (2, lambda: tool("finish", {"report_text": "claiming done"})),
    ]
    if adversarial:
        menu.append((8, lambda: tool("finish", {"report_text": "early exit"})))
    total = sum(w for w, _ in menu)
    pick = rng.uniform(0, total)
    for weight, factory in menu:
        pick -= weight
        if pick <= 0:
            return factory()
    return menu[-1][1]()


def random_script(rng: random.Random, adversarial: bool) -> list[dict]:
    if rng.random() < 0.3:
        # mostly-legal order with early-finish attempts sprinkled in: these
        # runs reach verified completion unless a perturbation derails them,
        # showing the gate opens exactly when it should
        legal = [
            tool("repair_collect_evidence", {"log_path": "in/fail.log"}),
            tool("repair_apply_unified_patch", {"target": "in/calc.py", "body": CALC_PATCH}),
            tool("repair_run_verification", {"checks": [
                {"name": "calc-there", "type": "file_exists",
                 "args": {"path": "in/calc.py"}}]}),
            tool("repair_write_artifact", {"path": "out/report.md", "content": "note\n"}),
            tool("finish", {"report_text": "verified done"}),
        ]
        script = []
        for step in legal:
            if rng.random() < 0.5:
                script.append(tool("finish", {"report_text": "early exit"}))
            script.append(step)
        return script
    return [random_step(rng, adversarial) for _ in range(rng.randint(3, 10))]


def run_random_case(registry, tmp_root: Path, seed: int, adversarial: bool):
    rng = random.Random(seed)
    ws = tmp_root / f"ws{seed}"
    make_tiny_workspace(ws)
    done_when = rng.choice(["make it pass", "make it pass, write `out/report.md`"])
    runtime = make_runtime(
        registry, ws, tmp_root / f"store{seed}",
        random_script(rng, adversarial),
        allowlist=(),
        apply_tool_filters=rng.random() > 0.4,
    )
    submit_repair_task(runtime, ws, done_when=done_when)
    try:
        runtime.run_until_quiescent(14)
    except StepBudgetExhausted:
        pass
    return runtime.store.session("s0001")


@pytest.fixture(scope="module")
def diagnose_registry(tmp_path_factory):
    """Registry whose repair package has contextual_diagnosis enabled."""
    skills = tmp_path_factory.mktemp("skills-diag")
    shutil.copytree(builtin_skills_dir() / "repair", skills / "repair")
    (skills / "repair" / "config.json").write_text(json.dumps({
        "artifact_extensions": ".md,.txt,.json,.patch",
        "contextual_diagnosis": True,
    }))
    registry = SkillRegistry()
    registry.load_all(skills)
    return registry


class TestCriterion1GateEnforcement:
    def test_deterministic_early_finish_always_blocked(self, registry, tmp_path):
        ws = tmp_path / "ws"
        make_tiny_workspace(ws)
        script = [finish_step(report="1"), finish_step(report="2"),
                  {"respond": {"text": "fine, giving up"}}]
        runtime = make_runtime(registry, ws, tmp_path / "store", script, allowlist=())
        submit_repair_task(runtime, ws)
        try:
            runtime.run_until_quiescent(10)
        except StepBudgetExhausted:
            pass
        session = runtime.store.session("s0001")
        finish_results = [e.payload for e in session.history
                          if e.kind is EventKind.TOOL_RESULT
                          and e.payload["name"] == "finish"]
        assert len(finish_results) == 2
        assert all(not p["ok"] for p in finish_results)
        assert all("verification not passed" in p["output"]["reasons"]
                   for p in finish_results)
        assert session.status is not SessionStatus.COMPLETED

    def test_200_adversarial_scripts_never_complete_unverified(self, registry, tmp_path):
        started = time.monotonic()
        completions = kept_open = refused_finishes = 0
        for seed in range(200):
            session = run_random_case(registry, tmp_path, seed, adversarial=True)
            state = RepairState.from_doc(session.skill_state.get("repair", {}))
            refused_finishes += sum(
                1 for e in session.history
                if e.kind is EventKind.TOOL_RESULT
                and e.payload["name"] == "finish" and not e.payload["ok"]
            )
            if session.status is SessionStatus.COMPLETED:
                completions += 1
                assert state.verification_passed is True, (
                    f"seed {seed}: completed without verification"
                )
            else:
                kept_open += 1
        elapsed = time.monotonic() - started
        assert refused_finishes > 0, "suite never exercised a blocked finish"
        assert completions > 0, "suite never exercised a legitimate completion"
        assert elapsed < 30, f"gate suite took {elapsed:.1f}s"
        print(REPORT.format(
            n=1,
            detail=f"200 adversarial scripts: {refused_finishes} premature finishes "
                   f"refused, {completions} verified completions allowed, "
                   f"{kept_open} sessions kept open, 0 unverified completions, "
                   f"{elapsed:.1f}s",
        ))


class TestCriterion2PhaseSoundness:
    def check_session(self, session, seed, mode):
        phases = phase_sequence(session)
        if not phases:
            return
        if phases[0] != "reproduce":
            phases = ["reproduce"] + phases
        for edge in zip(phases, phases[1:]):
            assert edge in PHASE_EDGES, (
                f"seed {seed} ({mode}): illegal transition {edge} in {phases}; trace:\n"
                + "\n".join(json.dumps({"seq": e.seq, "kind": e.kind.value,
                                        "payload": e.payload})
                            for e in session.history)
            )

    def test_1000_randomized_runs_stay_on_legal_edges(self, registry, diagnose_registry,
                                                      tmp_path):
        started = time.monotonic()
        checked = 0
        for seed in range(1000):
            reg = diagnose_registry if seed % 4 == 0 else registry
            mode = "diagnose" if seed % 4 == 0 else "default"
            session = run_random_case(reg, tmp_path, 10_000 + seed,
                                      adversarial=seed % 2 == 0)
            self.check_session(session, seed, mode)
            checked += 1
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"phase soundness suite took {elapsed:.1f}s"
        print(REPORT.format(
            n=2,
            detail=f"{checked} randomized runs, all phase sequences within the "
                   f"legal edge set, {elapsed:.1f}s",
        ))


class TestCriterion3VisibilityOracle:
    EXPECTED = {
        "reproduce": {"repair_collect_evidence"},
        "diagnose": {"repair_collect_evidence", "repair_apply_unified_patch"},
        "patch": {"repair_collect_evidence", "repair_apply_unified_patch"},
        "verify": {"repair_run_verification"},
        "report": {"repair_write_artifact"},
    }

    def test_visible_repair_tools_match_phase_policy(self, registry, tmp_path):
        ws = tmp_path / "ws"
        make_tiny_workspace(ws)
        store = SessionStore(tmp_path / "store")
        session = store.create_session(REPAIR_TASK_TEXT, "code_repair", ws,
                                       REPAIR_DONE_WHEN, routed_skills=["repair"])
        pipeline = HookPipeline(registry, store)
        candidates = orchestration_schemas() + registry.lookup("repair").tools
        for phase, expected in self.EXPECTED.items():
            store.put_skill_state(session.session_id, "repair",
                                  RepairState(phase=phase).to_doc())
            outcome = pipeline.run_before_llm(session, candidates)
            visible = {t.name for t in outcome.visible_tools if t.name.startswith("repair_")}
            assert visible == expected, f"phase {phase}: {visible} != {expected}"
        print(REPORT.format(n=3, detail="5 phases, visible repair tool sets exactly "
                                        "match the phase policy table"))


class TestCriterion4GuardSuite:
    # (label, tool, args, phase, refusal layer)
    CASES = [
        ("protected-path patch", "repair_apply_unified_patch",
         {"target": "tests/test_calc.py", "body": CALC_PATCH}, "patch", "rejected"),
        ("missing-@@ patch", "repair_apply_unified_patch",
         {"target": "in/calc.py", "body": "replace minus with plus"}, "patch", "rejected"),
        ("append-only patch", "repair_apply_unified_patch",
         {"target": "in/calc.py", "body": "@@ -2,0 +3,1 @@\n+# trailing\n"}, "patch",
         "rejected"),
        ("oversize patch", "repair_apply_unified_patch",
         {"target": "in/new.py",
          "body": "@@ -0,0 +1,401 @@\n" + "".join(f"+l{i}\n" for i in range(401))},
         "patch", "rejected"),
        # an empty check list dies at schema validation, before the hook guard
        ("empty verification checks", "repair_run_verification",
         {"checks": []}, "verify", "invalid_arguments"),
    ]

    def test_guards_reject_before_any_side_effect(self, tmp_path):
        spy_calls = []
        spied = dict(EXECUTORS)
        for exec_id in ("repair.apply_unified_patch", "repair.run_verification"):
            spied[exec_id] = (lambda eid: lambda args, ctx: spy_calls.append(eid))(exec_id)
        registry = SkillRegistry(executors=spied)
        registry.load_all(builtin_skills_dir())

        for label, name, args, phase, refusal in self.CASES:
            ws = tmp_path / f"ws-{label.split()[0]}"
            make_tiny_workspace(ws)
            (ws / "tests").mkdir()
            (ws / "tests" / "test_calc.py").write_text("assert True\n")
            store_dir = tmp_path / f"store-{label.split()[0]}"
            runtime = make_runtime(registry, ws, store_dir,
                                   [tool(name, args)], allowlist=())
            session = submit_repair_task(runtime, ws)
            runtime.store.put_skill_state(session.session_id, "repair",
                                          RepairState(phase=phase).to_doc())
            try:
                runtime.run_until_quiescent(2)
            except StepBudgetExhausted:
                pass
            results = [e.payload for e in session.history
                       if e.kind is EventKind.TOOL_RESULT]
            assert results, f"{label}: no tool_result recorded"
            assert results[0]["ok"] is False, f"{label}: call was not refused"
            assert results[0]["output"]["error"] == refusal, label
        assert spy_calls == [], f"executor ran for: {spy_calls}"
        print(REPORT.format(n=4, detail="5 guard violations refused with zero "
                                        "executor invocations (spy)"))

    # (label, tool, args, phase): every tool that writes workspace files,
    # aimed at the repair skill's protected tests/**
    WRITES = [
        ("fs_write", "fs_write",
         {"path": "tests/test_calc.py", "content": "# clobbered\n"}, "patch"),
        ("fs_write-new", "fs_write",
         {"path": "tests/deep/new.py", "content": "x = 2\n"}, "patch"),
        ("artifact", "repair_write_artifact",
         {"path": "tests/test_calc.py", "content": "# clobbered\n"}, "report"),
        ("patch", "repair_apply_unified_patch",
         {"target": "tests/test_calc.py",
          "body": "@@ -1,1 +1,1 @@\n-assert True\n+assert False\n"}, "patch"),
    ]

    def test_protected_paths_hold_through_every_writer(self, tmp_path):
        # with the patch guard hook swapped out, the workspace writer is the
        # only thing left between a tool and the protected tree
        unguarded = SkillRegistry(
            hook_programs={**HOOK_PROGRAMS, "repair.before_tool": lambda ctx: None})
        guarded = SkillRegistry()
        for registry in (guarded, unguarded):
            registry.load_all(builtin_skills_dir())

        runs = 0
        for guard, registry in (("hook", guarded), ("nohook", unguarded)):
            for filters in (True, False):
                for label, name, args, phase in self.WRITES:
                    case = f"{label}-{guard}-{'filtered' if filters else 'unfiltered'}"
                    ws = tmp_path / f"ws-{case}"
                    make_tiny_workspace(ws)
                    (ws / "tests" / "deep").mkdir(parents=True)
                    (ws / "tests" / "test_calc.py").write_text("assert True\n")
                    (ws / "tests" / "deep" / "keep.py").write_text("x = 1\n")
                    before = tree_checksum(ws / "tests")
                    runtime = make_runtime(registry, ws, tmp_path / f"store-{case}",
                                           [tool(name, args)], allowlist=(),
                                           apply_tool_filters=filters)
                    session = submit_repair_task(runtime, ws)
                    runtime.store.put_skill_state(session.session_id, "repair",
                                                  RepairState(phase=phase).to_doc())
                    try:
                        runtime.run_until_quiescent(2)
                    except StepBudgetExhausted:
                        pass
                    # a tool the filter hides is never called (the scripted
                    # model cannot pick it); any call that is made is refused
                    results = [e.payload for e in session.history
                               if e.kind is EventKind.TOOL_RESULT]
                    assert not any(r["ok"] for r in results), f"{case}: write accepted"
                    assert tree_checksum(ws / "tests") == before, f"{case}: tests/ changed"
                    runs += 1
        print(REPORT.format(n=4, detail=f"{runs} protected-path writes through fs_write, "
                                        "repair_write_artifact and the patch executor "
                                        "refused, filters on and off, tests/ byte-identical"))


class TestCriterion5RoutingFormula:
    TRIGGERS = ["alpha", "beta", "gamma", "delta"]

    def scoring_registry(self, tmp_path, policy=None):
        pkg = tmp_path / "scored"
        pkg.mkdir(parents=True, exist_ok=True)
        (pkg / "manifest.json").write_text(json.dumps({
            "skill_id": "scored", "version": "0.1.0", "description": "scoring probe",
            "task_types": ["target_type"], "trigger_keywords": self.TRIGGERS,
            "tools": [], "hooks": [], "policy": policy or {},
        }))
        (pkg / "config.json").write_text("{}")
        registry = SkillRegistry()
        registry.load_skill_package(pkg)
        return registry

    def test_twelve_case_table_and_rescale_invariance(self, tmp_path):
        registry = self.scoring_registry(tmp_path)
        manifest = registry.lookup("scored")
        grid = [
            # (task_type matches, keywords present, expected score)
            (True, [], 0.6),
            (True, ["alpha"], 0.7),
            (True, ["alpha", "beta"], 0.8),
            (True, ["alpha", "beta", "gamma"], 0.9),
            (True, self.TRIGGERS, 1.0),
            (False, [], 0.0),
            (False, ["alpha"], 0.1),
            (False, ["alpha", "beta"], 0.2),
            (False, ["alpha", "beta", "gamma"], 0.3),
            (False, self.TRIGGERS, 0.4),
        ]
        for matches, keywords, expected in grid:
            task = DelegatedTask(
                task_text="filler " + " ".join(keywords),
                task_type="target_type" if matches else "other_type",
                workspace_root=tmp_path, done_when="",
            )
            assert score_candidate(manifest, task) == pytest.approx(expected), (
                matches, keywords)

        # case 11: empty trigger set contributes zero keyword overlap
        no_triggers = self.scoring_registry(tmp_path / "nt")
        nt_manifest = no_triggers.lookup("scored")
        nt_manifest.trigger_keywords = set()
        task = DelegatedTask("alpha beta gamma delta", "target_type", tmp_path, "")
        assert score_candidate(nt_manifest, task) == pytest.approx(0.6)

        # case 12: violated policy constraint zeroes an otherwise perfect score
        constrained = self.scoring_registry(
            tmp_path / "cons", policy={"requires_writable_workspace": True})
        c_manifest = constrained.lookup("scored")
        missing_ws = tmp_path / "never-made"
        task = DelegatedTask(" ".join(self.TRIGGERS), "target_type", missing_ws, "")
        assert score_candidate(c_manifest, task) == 0.0

        # argmax invariance: rescaling both weights keeps the route ordering
        multi = SkillRegistry()
        for sid, types, triggers in [
            ("typed", ["target_type"], ["x"]),
            ("wordy", ["other"], ["alpha", "beta"]),
            ("both", ["target_type"], ["alpha"]),
        ]:
            pkg = tmp_path / "multi" / sid
            pkg.mkdir(parents=True)
            (pkg / "manifest.json").write_text(json.dumps({
                "skill_id": sid, "version": "0.1.0", "description": sid,
                "task_types": types, "trigger_keywords": triggers,
                "tools": [], "hooks": [], "policy": {},
            }))
            (pkg / "config.json").write_text("{}")
            multi.load_skill_package(pkg)
        task = DelegatedTask("alpha beta please", "target_type", tmp_path, "")
        base = route(multi, task, RouterConfig(threshold=0.0)).skill_ids()
        for factor in (0.5, 3.0, 17.0):
            scaled = RouterConfig(threshold=0.0, w_type=0.6 * factor,
                                  w_keyword=0.4 * factor)
            assert route(multi, task, scaled).skill_ids() == base
        repeat = route(multi, task, RouterConfig(threshold=0.0)).skill_ids()
        assert repeat == base
        print(REPORT.format(n=5, detail="12-case score table exact, ordering stable "
                                        "under x0.5/x3/x17 weight rescaling"))


class TestCriterion6PrefixSemantics:
    KINDS = ("user_message", "assistant_message", "system_note",
             "tool_call", "tool_result", "snapshot")

    def build_store(self, root: Path, rng: random.Random, n_records: int):
        ws = root / "ws"
        ws.mkdir()
        store = SessionStore(root / "store")
        session = store.create_session("t", "misc", ws, "")
        # shadow: file records after the meta line, in write order
        records = [("event", session.history[0])]
        open_calls = []
        while len(records) < n_records:
            kind = rng.choice(self.KINDS)
            if kind == "snapshot":
                skill = rng.choice(["repair", "other"])
                state = {"phase": rng.choice(["reproduce", "patch"]), "n": rng.randint(0, 9)}
                store.put_skill_state(session.session_id, skill, state)
                records.append(("snapshot", (skill, state)))
            elif kind == "tool_result" and open_calls:
                payload = {"call_id": open_calls.pop(), "name": "t_x", "ok": True,
                           "output": {"v": rng.randint(0, 9)}}
                store.append_event(session.session_id, EventKind.TOOL_RESULT, payload)
                records.append(("event", session.history[-1]))
            elif kind == "tool_call":
                call_id = f"call-{len(open_calls) + rng.randint(0, 999)}-{len(records)}"
                open_calls.append(call_id)
                payload = {"name": "t_x", "args": {}, "call_id": call_id, "accepted": True}
                store.append_event(session.session_id, EventKind.TOOL_CALL, payload)
                records.append(("event", session.history[-1]))
            elif kind != "tool_result":
                payload = {"text": f"{kind}-{rng.randint(0, 99)}"}
                store.append_event(session.session_id, EventKind(kind), payload)
                records.append(("event", session.history[-1]))
        return store, session, records

    def reload_prefix(self, source_store: Path, session_id: str, keep_lines: int,
                      scratch: Path):
        log = source_store / "sessions" / f"{session_id}.log"
        lines = log.read_bytes().splitlines(keepends=True)
        target = scratch / "store"
        (target / "sessions").mkdir(parents=True)
        (target / "sessions" / f"{session_id}.log").write_bytes(
            b"".join(lines[:keep_lines]))
        return SessionStore(target)

    def test_every_record_boundary_reproduces_its_prefix(self, tmp_path):
        rng = random.Random(6)
        checked_boundaries = 0
        for case in range(6):
            case_root = tmp_path / f"case{case}"
            case_root.mkdir()
            store, session, records = self.build_store(
                case_root, rng, n_records=rng.randint(20, 100))
            sid = session.session_id
            for boundary in range(1, len(records) + 1):
                scratch = case_root / f"cut{boundary}"
                scratch.mkdir()
                reloaded = self.reload_prefix(case_root / "store", sid,
                                              keep_lines=boundary + 1, scratch=scratch)
                expect_events = [r for t, r in records[:boundary] if t == "event"]
                expect_state: dict = {}
                for t, r in records[:boundary]:
                    if t == "snapshot":
                        expect_state[r[0]] = r[1]
                got = reloaded.session(sid)
                assert [(e.seq, e.kind, e.payload) for e in got.history] == \
                       [(e.seq, e.kind, e.payload) for e in expect_events]
                assert got.skill_state == expect_state
                checked_boundaries += 1

        # torn tail: cutting into the last record drops exactly that record
        torn_root = tmp_path / "torn"
        torn_root.mkdir()
        store, session, records = self.build_store(torn_root, rng, n_records=30)
        log = torn_root / "store" / "sessions" / f"{session.session_id}.log"
        lines = log.read_bytes().splitlines(keepends=True)
        scratch = torn_root / "cut"
        (scratch / "store" / "sessions").mkdir(parents=True)
        (scratch / "store" / "sessions" / f"{session.session_id}.log").write_bytes(
            b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        reloaded = SessionStore(scratch / "store").session(session.session_id)
        expect_events = [r for t, r in records[:-1] if t == "event"]
        assert [(e.seq, e.payload) for e in reloaded.history] == \
               [(e.seq, e.payload) for e in expect_events]
        print(REPORT.format(
            n=6, detail=f"{checked_boundaries} record boundaries across 6 random logs "
                        "reproduce exact prefixes; torn tail drops exactly one record"))


def run_repair_fixture(registry, tmp_path, label, apply_tool_filters=True,
                       delegated=False):
    ws = tmp_path / f"ws-{label}"
    (ws / "in").mkdir(parents=True)
    (ws / "in" / "calc.py").write_text(BUGGY_CALC)
    (ws / "in" / "test_calc.py").write_text(CALC_TEST)
    script = repair_script()
    if delegated:
        script = [
            {"when": {"tool_visible": "delegate_subtask"},
             "respond": {"tool_call": {"name": "delegate_subtask", "args": {
                 "task_text": REPAIR_TASK_TEXT, "task_type": "code_repair",
                 "subdir": ".", "done_when": REPAIR_DONE_WHEN}}}},
            *script,
            {"when": {"phase_contains": "child_report"},
             "respond": {"tool_call": {"name": "finish",
                                       "args": {"report_text": "child reported; done"}}}},
        ]
    runtime = make_runtime(registry, ws, tmp_path / f"store-{label}", script,
                           apply_tool_filters=apply_tool_filters)
    if delegated:
        runtime.submit_task(DelegatedTask("coordinate the repair work", "coordination",
                                          ws, "child reports back"))
    else:
        submit_repair_task(runtime, ws)
    runtime.run_until_quiescent(30)
    return runtime, ws


class TestCriterion7AccountingIdentity:
    def test_session_totals_equal_log_column_sums(self, registry, tmp_path):
        checked = 0
        for label, delegated in (("solo", False), ("delegated", True)):
            runtime, _ = run_repair_fixture(registry, tmp_path, label,
                                            delegated=delegated)
            lines = read_jsonl(tmp_path / f"store-{label}" / "requests.jsonl")
            assert lines, "fixture logged no requests"
            for session in runtime.store.sessions():
                mine = [l for l in lines if l["session_id"] == session.session_id]
                for column in ("input_tokens", "output_tokens", "cache_tokens",
                               "total_tokens"):
                    assert getattr(session.usage, column) == \
                        sum(l[column] for l in mine), (session.session_id, column)
                assert session.usage.request_count == len(mine)
                checked += 1
        print(REPORT.format(
            n=7, detail=f"usage totals equal requests.jsonl column sums for "
                        f"{checked} sessions across 2 fixtures"))


class TestCriterion8TokenAblation:
    def test_filtering_strictly_reduces_request_units(self, registry, tmp_path):
        totals = {}
        for label, filtered in (("filtered", True), ("unfiltered", False)):
            run_repair_fixture(registry, tmp_path, label, apply_tool_filters=filtered)
            lines = read_jsonl(tmp_path / f"store-{label}" / "requests.jsonl")
            totals[label] = sum(l["input_tokens"] for l in lines)
        assert totals["unfiltered"] > totals["filtered"]
        ratio = totals["unfiltered"] / totals["filtered"]
        print(REPORT.format(
            n=8, detail=f"unfiltered/filtered request units = "
                        f"{totals['unfiltered']}/{totals['filtered']} "
                        f"(ratio {ratio:.3f}, strictly > 1)"))


class TestCriterion9EndToEnd:
    def test_delegated_repair_completes_under_ten_seconds(self, registry, tmp_path):
        started = time.monotonic()
        runtime, ws = run_repair_fixture(registry, tmp_path, "e2e", delegated=True)
        elapsed = time.monotonic() - started
        store = runtime.store
        parent, child = store.session("s0001"), store.session("s0002")

        assert child.status is SessionStatus.COMPLETED
        assert parent.status is SessionStatus.COMPLETED
        assert phase_sequence(child) == ["reproduce", "patch", "verify", "report"]
        state = RepairState.from_doc(child.skill_state["repair"])
        assert state.verification_passed is True
        assert (ws / "out" / "report.md").is_file()

        # the repaired program actually passes its test under verification
        verification = next(
            e.payload for e in child.history
            if e.kind is EventKind.TOOL_RESULT
            and e.payload["name"] == "repair_run_verification")
        assert verification["output"]["passed"] is True

        reports = [e for e in parent.history
                   if e.kind is EventKind.USER_MESSAGE
                   and e.payload.get("source") == "child_report"]
        assert len(reports) == 1 and child.session_id in reports[0].payload["text"]
        assert elapsed < 10, f"end-to-end fixture took {elapsed:.1f}s"
        print(REPORT.format(
            n=9, detail=f"reproduce->patch->verify->report->finish with delegation "
                        f"in {elapsed:.1f}s; parent received the child report"))
