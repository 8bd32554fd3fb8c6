"""The benchmark's outside-in probe still finds every name it wraps, and
its correctness checks still see a wrong outcome.

`perfbench/probe.py` times each layer by replacing, by name, a method, a
module-level function or a binding-table entry of the runtime. Installing
its instruments here makes a rename or removal of a wrapped name fail this
suite instead of only a traced benchmark run; running `perfbench/selftest.py`
does the same for a runtime change that blinds one of its checks.
"""

import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

from skillet import RunConfig, ScriptedBackend, SessionStatus, bindings
from skillet.planner import Runtime

from conftest import make_runtime, repair_script, submit_repair_task

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "probe.py"


def load_probe() -> types.ModuleType:
    # executed from source so that no bytecode is written next to it
    module = types.ModuleType("perfbench_probe")
    module.__file__ = str(PROBE)
    exec(compile(PROBE.read_text(encoding="utf-8"), str(PROBE), "exec"), module.__dict__)
    return module


def test_probe_installs_traces_a_repair_run_and_restores(registry, repair_workspace,
                                                         tmp_path):
    probe = load_probe()
    tables = (bindings.EXECUTORS, bindings.HOOK_PROGRAMS, bindings.COMPLETION_GATES)
    before = ([dict(t) for t in tables], Runtime.__dict__["run_wakeup"],
              Runtime.__dict__["submit_task"], os.fsync)
    patches = probe.Patches()
    log, tracer = probe.WakeupLog(), probe.Tracer()
    try:
        log.install(patches)
        tracer.install(patches, ScriptedBackend)
        tracer.measuring = True
        runtime = make_runtime(registry, repair_workspace, tmp_path / "store",
                               repair_script())
        session = submit_repair_task(runtime, repair_workspace)
        runtime.run_until_quiescent(20)
    finally:
        patches.restore()

    assert runtime.store.session(session.session_id).status is SessionStatus.COMPLETED
    assert list(log.completed) == [session.session_id]
    traced = {span[3] for span in tracer.spans}
    # every per-layer span but the skill loading, which ran before install
    wanted = {span for span, _ in probe.PER_CALL.values()} - {"registry.load_all"}
    assert wanted <= traced, sorted(wanted - traced)
    metrics = probe.layer_metrics(tracer, tasks=1)
    assert metrics["repair.gate_calls_per_wakeup"] > 0
    assert ([dict(t) for t in tables], Runtime.__dict__["run_wakeup"],
            Runtime.__dict__["submit_task"], os.fsync) == before


def test_probe_sees_every_pop_of_a_threaded_drain(registry, repair_workspace, tmp_path):
    """The threaded drain takes its wakeups through the zero-argument
    `WakeupQueue.pop` the probe wraps, so queue waits and the pop hit ratio
    are measured rather than silently reading 0."""
    probe = load_probe()
    sessions = 3
    config = RunConfig.from_dict({"planner": {"single_worker": False}})
    runtime = make_runtime(registry, repair_workspace, tmp_path / "store", [],
                           config=config)
    patches = probe.Patches()
    tracer = probe.Tracer()
    try:
        tracer.install(patches, ScriptedBackend)
        tracer.measuring = True
        submitted, script = [], []
        for i in range(sessions):
            ws = tmp_path / f"ws{i}"
            shutil.copytree(repair_workspace, ws)
            session = submit_repair_task(runtime, ws)
            script += [{**step, "when": {**step.get("when", {}), "session": session.session_id}}
                       for step in repair_script()]
            submitted.append(session)
        runtime.backend = ScriptedBackend(script)
        runtime.run_until_quiescent(60)
    finally:
        patches.restore()

    assert {runtime.store.session(s.session_id).status for s in submitted} == \
        {SessionStatus.COMPLETED}
    wakeups = tracer.counts["calls." + probe.WAKEUP]
    assert tracer.counts["pops"] == wakeups > 0
    assert tracer.counts["queue_wait_us"] > 0
    metrics = probe.layer_metrics(tracer, tasks=sessions)
    assert metrics["planner.pop_hit_ratio"] > 0
    assert metrics["planner.queue_wait_ms"] > 0


def test_every_benchmark_check_reports_its_wrong_outcome():
    # -B: no bytecode is written under perfbench/
    run = subprocess.run([sys.executable, "-B", "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "17/17 checks report their wrong outcome" in run.stdout
