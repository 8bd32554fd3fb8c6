"""The four workloads: inputs, the rounds that drive the stack, and what each
round measured.

Every workload runs in whole rounds of the same operations, so the share of
failed tasks is the same in every run. All inputs come from one
`random.Random(seed)`; sizes and the mix of script variants are fixed, the
seed picks the order and the content (numbers, report text, patch operators).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from probe import (CALIBRATION_REFERENCE_S, WakeupLog, calibration_pass, clock, model_wait,
                   proc_wchar)

from skillet import (
    DelegatedTask,
    RunConfig,
    Runtime,
    ScriptedBackend,
    SessionStore,
    SkillRegistry,
    UsageLog,
    builtin_skills_dir,
)
from skillet import cli
from skillet.errors import StepBudgetExhausted

PY = sys.executable
TASK_TEXT = "Fix the failing calculator test; the repair bug is in in/calc.py"
DONE_WHEN = "the test passes and the summary is written to `out/report.md`"
ARTIFACT = "out/report.md"
PROTECTED = "tests/t.py"
UNLIMITED = {"planner": {"max_steps": 10 ** 9}}

BUGGY_CALC = "def add(a, b):\n    return a - b\n"
FIXED_NEEDLE = "return a + b"


# -- model stand-in -------------------------------------------------------------

class SessionScripts:
    """The model for runtimes the benchmark builds itself: one ScriptedBackend
    per session, picked by the request's session id, after an optional fixed
    latency. One backend shared by hundreds of sessions could not tell them
    apart: script predicates see only the last message."""

    def __init__(self, latency_s: float = 0.0):
        self.latency_s = latency_s
        self.scripts: dict[str, ScriptedBackend] = {}

    def complete(self, request):
        if self.latency_s:
            time.sleep(self.latency_s)
            model_wait.seconds += self.latency_s
        return self.scripts[request.session_id].complete(request)


# -- script steps ----------------------------------------------------------------

def call(name: str, args: dict) -> dict:
    return {"respond": {"tool_call": {"name": name, "args": args}}}


def calc_patch(old: str, new: str) -> str:
    return (f"@@ -1,2 +1,2 @@\n def add(a, b):\n-    return a {old} b\n"
            f"+    return a {new} b\n")


def patch(old: str, new: str) -> dict:
    return call("repair_apply_unified_patch", {"target": "in/calc.py",
                                               "body": calc_patch(old, new)})


def evidence(argv: list[str] | None = None) -> dict:
    args = {"command": argv} if argv else {"log_path": "in/fail.log"}
    return call("repair_collect_evidence", args)


def verify(check: dict) -> dict:
    return call("repair_run_verification", {"checks": [check]})


def artifact(path: str, content: str) -> dict:
    return call("repair_write_artifact", {"path": path, "content": content})


def finish(text: str) -> dict:
    return call("finish", {"report_text": text})


FILE_CHECK = {"name": "fixed", "type": "file_contains",
              "args": {"path": "in/calc.py", "needle": FIXED_NEEDLE}}
CAT_LOG = ["cat", "in/fail.log"]

# refused steps mixed into fanout scripts, each placed where it is visible
EARLY_FINISH = finish("done already")                                    # gate block
MALFORMED_PATCH = call("repair_apply_unified_patch", {                    # hook refusal
    "target": "in/calc.py", "body": "replace the minus with a plus"})
OVERSIZED_PATCH = call("repair_apply_unified_patch", {                    # hook refusal
    "target": "in/calc.py",
    "body": "@@ -1,2 +1,403 @@\n def add(a, b):\n-    return a - b\n"
            + "".join(f"+    pass  # {i:03d}\n" for i in range(402))})
BAD_ARGUMENTS = call("repair_apply_unified_patch", {"target": "in/calc.py"})  # schema refusal
VARIANTS = ("plain", "early_finish", "malformed_patch", "oversized_patch", "bad_arguments")


# -- fixtures --------------------------------------------------------------------

@dataclass
class Task:
    """One root task and what the checks expect of it."""

    workspace: Path
    steps: list[dict]
    inputs: list[tuple[int, int]]
    report: str
    tests_digest: str = ""
    session_id: str = ""
    exit_code: int | None = None


def token(rng: random.Random) -> str:
    return f"{rng.getrandbits(64):016x}"


def write_workspace(ws: Path, rng: random.Random, extra_module: bool = False) -> Task:
    """in/calc.py with the bug, its test, a failure log and a protected test."""
    x, y = rng.randint(10, 99), rng.randint(10, 99)
    (ws / "in").mkdir(parents=True)
    (ws / "tests").mkdir()
    (ws / "in" / "calc.py").write_text(BUGGY_CALC)
    (ws / "in" / "test_calc.py").write_text(
        "ns = {}\nexec(open('in/calc.py').read(), ns)\n"
        f"assert ns['add']({x}, {y}) == {x + y}, 'add({x},{y}) returned %r' % ns['add']({x}, {y})\n"
        "print('ok')\n")
    (ws / "in" / "fail.log").write_text(
        "Traceback (most recent call last):\n"
        f'  File "{ws.name}/in/test_calc.py", line 3, in <module>\n'
        f"AssertionError: add({x},{y}) returned {x - y:+03d}\n")
    (ws / PROTECTED).write_text(
        f"from calc import add\n\n\ndef test_add():\n    assert add({x}, {y}) == {x + y}\n")
    if extra_module:
        (ws / "in" / "module.py").write_text("".join(
            f"def step_{i:02d}(v):\n    return v + {rng.randint(100, 999)}\n" for i in range(40)))
    inputs = [(rng.randint(-999, 999), rng.randint(-999, 999)) for _ in range(3)]
    report = f"# Repair report\nadd() fixed; run {token(rng)}\n"
    return Task(workspace=ws, steps=[], inputs=inputs, report=report,
                tests_digest=checks.tree_digest(ws / "tests"))


def fanout_steps(variant: str, report: str, clobber: bool) -> list[dict]:
    steps = [evidence(CAT_LOG), patch("-", "+"), verify(FILE_CHECK)]
    if variant == "early_finish":
        steps.insert(0, EARLY_FINISH)
    elif variant == "malformed_patch":
        steps.insert(1, MALFORMED_PATCH)
    elif variant == "oversized_patch":
        steps.insert(1, OVERSIZED_PATCH)
    elif variant == "bad_arguments":
        steps.insert(1, BAD_ARGUMENTS)
    if clobber:
        # the known fault: a report-phase artifact write lands on a protected path
        steps.append(artifact(PROTECTED, "# overwritten by the report phase\n"))
    steps += [artifact(ARTIFACT, report), finish("Repaired add(); verification passed.")]
    return steps


# -- what a round measured ----------------------------------------------------------

@dataclass
class Round:
    """Times are (seconds as the clock read them, the factor that puts them on
    the reference machine's scale), the factor taken when they were recorded."""

    open_s: list[tuple[float, float]] = field(default_factory=list)  # runtime opens, CLI set-ups
    submit_s: list[tuple[float, float]] = field(default_factory=list)  # single task submissions
    # (wall, simulated model latency inside, speed factor)
    wakeups: list[tuple[float, float, float]] = field(default_factory=list)
    task_s: list[tuple[float, float]] = field(default_factory=list)
    drain_s: list[tuple[float, float]] = field(default_factory=list)
    speed_factors: list[float] = field(default_factory=list)  # one per calibration pass
    sessions_done: int = 0
    input_tokens: list[int] = field(default_factory=list)
    written_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def read_requests(store_dir: Path) -> list[dict]:
    return UsageLog(store_dir / "requests.jsonl").lines()


def tokens_per_root(store: SessionStore, requests: list[dict]) -> dict[str, int]:
    """Input tokens of each root session and all of its descendants."""
    root_of = {}
    for session in store.sessions():  # ids sort parents before children
        root_of[session.session_id] = root_of.get(session.parent_id, session.session_id)
    totals = {sid: 0 for sid, root in root_of.items() if sid == root}
    for line in requests:
        totals[root_of[line["session_id"]]] += line["input_tokens"]
    return totals


def score_tasks(round_: Round, task_problems: list[list[str]]) -> None:
    """A task with only the known protected-path fault counts as failed; any
    other problem makes the run incorrect."""
    round_.attempted += len(task_problems)
    for problems in task_problems:
        if problems and all(p.startswith(checks.PROTECTED_FAULT) for p in problems):
            round_.failed += 1
        else:
            round_.problems += problems


class Workload:
    """A workload builds inputs from its seed and runs whole rounds."""

    backend_owner = SessionScripts
    config: dict = {}
    calibration_passes = 8  # before each round
    # set by a traced run: a context in which spans do not count
    unmeasured = contextlib.nullcontext

    def __init__(self, seed: int, work_dir: Path, log: WakeupLog, size: int | None = None):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.log = log
        self.size = size or self.default_size
        self.rounds_run = 0
        self.registry_dir = builtin_skills_dir()

    def prepare(self) -> None:
        """Untimed, once per run."""

    def round(self) -> Round:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One round whose figures are discarded: imports, caches, lazy set-up."""
        self.round()

    def round_dir(self) -> Path:
        self.rounds_run += 1
        path = self.work_dir / f"round-{self.rounds_run:03d}"
        path.mkdir()
        return path

    def calibrate(self, round_: Round, passes: int) -> None:
        """Untimed: calibration passes; times recorded until the next call are
        put on the reference scale with the speed factor they give."""
        factors = [CALIBRATION_REFERENCE_S / calibration_pass(self.work_dir)
                   for _ in range(passes)]
        round_.speed_factors += factors
        self.speed = statistics.median(factors)

    def timed(self, seconds: float) -> tuple[float, float]:
        return seconds, self.speed

    def open_runtime(self, store_dir: Path, backend, fsync: bool = True) -> Runtime:
        """The set-up a user of the library pays: load skills, open (or
        reload) the store and the usage log, build the runtime."""
        registry = SkillRegistry()
        registry.load_all(self.registry_dir)
        store = SessionStore(store_dir, fsync=fsync)
        usage_log = UsageLog(store_dir / "requests.jsonl", fsync=fsync)
        return Runtime(registry, store, backend, usage_log,
                       RunConfig().merged(UNLIMITED).merged(self.config))

    def drain(self, runtime: Runtime, round_: Round) -> None:
        """Drain the queue and record the window's timings."""
        try:
            runtime.run_until_quiescent()
        finally:
            self.record_drain(round_, clock())

    def record_drain(self, round_: Round, end: float) -> None:
        """The window's wakeups and drain time, and the factor for its longer
        intervals (drain, task): the share of its wakeup time that was not
        simulated model latency is scaled."""
        wakeups = [(e - s, wait, self.speed) for _, s, e, wait in self.log.wakeups]
        round_.wakeups += wakeups
        wall = sum(w for w, _, _ in wakeups)
        self.interval_speed = scaled(wall, sum(wait for _, wait, _ in wakeups), self.speed) / wall
        round_.drain_s.append((end - self.log.first_wakeup, self.interval_speed))
        round_.written_bytes += proc_wchar() - self.log.first_wchar

    def finish_round(self, round_: Round, store: SessionStore, store_dir: Path,
                     tasks: list[Task]) -> None:
        """Collect the per-task figures and run every check on the round."""
        with self.unmeasured():
            requests = read_requests(store_dir)
            tokens = tokens_per_root(store, requests)
            for task in tasks:
                sid = task.session_id
                round_.input_tokens.append(tokens[sid])
                if sid in self.log.completed:
                    round_.sessions_done += 1
                    round_.task_s.append((self.log.completed[sid] - self.log.submitted[sid],
                                          self.interval_speed))
            score_tasks(round_, [self.task_problems(store, t) for t in tasks])
            round_.problems += checks.usage_identity(store, requests)
            round_.problems += checks.reload_matches(store)
            round_.problems += self.round_problems(store)

    def task_problems(self, store: SessionStore, task: Task) -> list[str]:
        return checks.repair_task(store.session(task.session_id), task)

    def round_problems(self, store: SessionStore) -> list[str]:
        """Checks particular to one workload."""
        return []


class Fanout(Workload):
    """Batch: hundreds of short repair tasks on one store, one worker."""

    default_size = 100
    config = {"workspace": {"command_allowlist": ["cat"]}}
    clobber_every = 20  # fixed positions, whatever the seed
    latency_s = 0.0

    def warm_up(self) -> None:
        size, self.size = self.size, min(self.size, 20)
        try:
            self.round()
        finally:
            self.size = size

    def clobbers(self, i: int) -> bool:
        return bool(self.clobber_every) and i % self.clobber_every == self.clobber_every - 1

    def variants(self) -> list[str]:
        """A fixed mix of script variants in seeded order; the tasks that
        clobber the protected file keep the plain script."""
        free = [i for i in range(self.size) if not self.clobbers(i)]
        mix = [VARIANTS[i % len(VARIANTS)] for i in range(len(free))]
        self.rng.shuffle(mix)
        out = ["plain"] * self.size
        for i, variant in zip(free, mix):
            out[i] = variant
        return out

    def round(self) -> Round:
        root = self.round_dir()
        tasks = []
        for i, variant in enumerate(self.variants()):
            task = write_workspace(root / "ws" / f"t{i:03d}", self.rng)
            task.steps = fanout_steps(variant, task.report, self.clobbers(i))
            tasks.append(task)
        scripts = [ScriptedBackend(t.steps) for t in tasks]
        backend = SessionScripts(self.latency_s)
        round_ = Round()
        self.calibrate(round_, self.calibration_passes)
        self.log.reset()
        start = clock()
        runtime = self.open_runtime(root / "store", backend)
        round_.open_s.append(self.timed(clock() - start))
        for task, script in zip(tasks, scripts):
            task_start = clock()
            session = runtime.submit_task(DelegatedTask(
                TASK_TEXT, "code_repair", task.workspace, DONE_WHEN))
            round_.submit_s.append(self.timed(clock() - task_start))
            task.session_id = session.session_id
            backend.scripts[session.session_id] = script
        self.drain(runtime, round_)
        self.finish_round(round_, runtime.store, root / "store", tasks)
        shutil.rmtree(root)
        return round_


class ModelLatency(Fanout):
    """Batch of concurrent sessions with fanout's script mix, drained by the
    threaded workers, with a fixed simulated model latency before every reply."""

    default_size = 20
    config = {"workspace": {"command_allowlist": ["cat"]},
              "planner": {"single_worker": False}}
    latency_s = 0.100

    def round_problems(self, store: SessionStore) -> list[str]:
        return checks.no_overlap(self.log.wakeups)


class LongHistory(Workload):
    """One session with a deep log: a prefix of turns is run untimed, then
    every round reloads that store, re-enqueues the session and runs the
    rest of the script to completion."""

    default_size = 400       # turns of history before the resume
    resumed_loops = 25       # 4 turns each, then 4 closing turns
    config = {"workspace": {"command_allowlist": ["cat"]}}

    def script(self) -> list[dict]:
        """reproduce, then read / evidence / patch / failing-verify loops,
        then the fix, a passing verify, the report and finish."""
        rng = self.rng
        steps = [evidence(CAT_LOG)]
        op = "-"
        loops = (self.size - 1) // 4 + self.resumed_loops
        for i in range(loops):
            new = rng.choice([o for o in "*%&|^" if o != op])
            steps += [
                call("fs_read", {"path": "in/module.py" if i % 2 else "in/calc.py"}),
                evidence(CAT_LOG if i % 2 else None),
                patch(op, new),
                verify(FILE_CHECK),
            ]
            op = new
        steps += [patch(op, "+"), verify(FILE_CHECK), artifact(ARTIFACT, self.task.report),
                  finish("Repaired add() after a long session.")]
        return steps

    def prepare(self) -> None:
        self.template = self.work_dir / "template"
        self.task = write_workspace(self.template / "ws", self.rng, extra_module=True)
        self.task.steps = self.script()
        self.prefix = 1 + 4 * ((self.size - 1) // 4)
        backend = SessionScripts()
        runtime = self.open_runtime(self.template / "store", backend, fsync=False)
        session = runtime.submit_task(DelegatedTask(
            TASK_TEXT, "code_repair", self.task.workspace, DONE_WHEN))
        self.task.session_id = session.session_id
        backend.scripts[session.session_id] = ScriptedBackend(self.task.steps)
        try:
            runtime.run_until_quiescent(self.prefix)
        except StepBudgetExhausted:
            pass
        else:
            raise RuntimeError("long_history prefix ran to completion")
        self.calc_after_prefix = (self.task.workspace / "in" / "calc.py").read_text()
        self.history_after_prefix = len(session.history)

    def round_problems(self, store: SessionStore) -> list[str]:
        return checks.gapless(store.session(self.task.session_id), self.history_after_prefix)

    def round(self) -> Round:
        root = self.round_dir()
        store_dir = root / "store"
        shutil.copytree(self.template / "store", store_dir)
        ws = self.task.workspace
        (ws / "in" / "calc.py").write_text(self.calc_after_prefix)
        shutil.rmtree(ws / "out", ignore_errors=True)
        backend = SessionScripts()
        backend.scripts[self.task.session_id] = ScriptedBackend(self.task.steps[self.prefix:])
        round_ = Round()
        self.calibrate(round_, self.calibration_passes)
        self.log.reset()
        start = clock()
        runtime = self.open_runtime(store_dir, backend)
        runtime.queue.enqueue(self.task.session_id, "followup")
        self.log.submitted[self.task.session_id] = clock()
        round_.open_s.append(self.timed(self.log.submitted[self.task.session_id] - start))
        self.drain(runtime, round_)
        self.finish_round(round_, runtime.store, store_dir, [self.task])
        shutil.rmtree(root)
        return round_


class DelegatedRepair(Workload):
    """Closed loop, one task at a time, through `skillet run` in-process with
    a fresh store per task: a coordinator delegates to a routed repair child
    that runs real commands for evidence and verification."""

    default_size = 20  # tasks per round, each after one calibration pass
    backend_owner = ScriptedBackend

    def task_files(self, root: Path) -> tuple[Task, list[str]]:
        task = write_workspace(root / "ws", self.rng)
        test = [PY, "-S", "in/test_calc.py"]
        task.steps = [
            call("delegate_subtask", {"task_text": TASK_TEXT, "task_type": "code_repair",
                                      "subdir": ".", "done_when": DONE_WHEN}),
            evidence(test),
            patch("-", "+"),
            verify({"name": "tests", "type": "command_exit_zero", "args": {"argv": test}}),
            artifact(ARTIFACT, task.report),
            finish("Repaired add(); verification passed."),
            finish("The delegated repair reported back; done."),
        ]
        (root / "script.json").write_text(json.dumps(task.steps))
        (root / "config.json").write_text(json.dumps(
            {"workspace": {"command_allowlist": [PY]}}))
        argv = ["run", "--skills", str(self.registry_dir), "--store", str(root / "store"),
                "--workspace", str(task.workspace), "--task", "coordinate the repair work",
                "--task-type", "coordination", "--done-when", "the child reports back",
                "--script", str(root / "script.json"), "--config", str(root / "config.json")]
        return task, argv

    def round(self) -> Round:
        root = self.round_dir()
        round_ = Round()
        for i in range(self.size):
            task_root = root / f"t{i:03d}"
            task, argv = self.task_files(task_root)
            self.calibrate(round_, 1)
            self.log.reset()
            start = clock()
            with contextlib.redirect_stdout(io.StringIO()):
                task.exit_code = cli.main(argv)
            round_.open_s.append(self.timed(self.log.first_wakeup - start))
            self.record_drain(round_, clock())
            (task.session_id,) = self.log.submitted
            self.finish_round(round_, self.log.runtime.store, task_root / "store", [task])
        shutil.rmtree(root)
        return round_

    def task_problems(self, store: SessionStore, task: Task) -> list[str]:
        problems = checks.delegation(task.exit_code, store, task.session_id)
        children = [s for s in store.sessions() if s.parent_id == task.session_id]
        if len(children) != 1:
            return problems + [f"{task.session_id}: {len(children)} child sessions, expected 1"]
        return problems + checks.repair_task(children[0], task)


WORKLOADS = {
    "fanout": Fanout,
    "long_history": LongHistory,
    "delegated_repair": DelegatedRepair,
    "model_latency": ModelLatency,
}


WINDOW = 100  # consecutive wakeups per window; its p90 keeps 10 samples beyond


def speed(round_: Round) -> float:
    """The round's median speed factor: the reference time of a calibration
    pass over the time it took."""
    return statistics.median(round_.speed_factors)


def scaled(wall: float, wait: float, factor: float) -> float:
    """Wall time on the reference scale. Simulated model latency is a fixed
    sleep, not work the machine does, so it is not scaled."""
    return wait + (wall - wait) * factor


def windows(rounds: list[Round], calibrated: bool) -> list[list[float]]:
    """Each round's wakeup times (ms) in order, split into as many equal
    windows of at least WINDOW as fit; a shorter round is one window."""
    out = []
    for r in rounds:
        ms = [(scaled(wall, wait, f) if calibrated else wall) * 1000 for wall, wait, f in r.wakeups]
        n = max(len(ms) // WINDOW, 1)
        out += [ms[len(ms) * i // n:len(ms) * (i + 1) // n] for i in range(n)]
    return out


def metrics(rounds: list[Round], calibrated: bool = True) -> dict[str, float]:
    """The end-to-end metrics over the measured rounds. Times are medians
    over windows, rounds or single set-ups, on the reference machine's scale
    (`calibrated=False`: as the clock read them)."""

    def seconds(timed: tuple[float, float]) -> float:
        return timed[0] * timed[1] if calibrated else timed[0]

    def per_round(kind: str) -> float:
        """A round's set-ups of one kind: how many it has times the median one."""
        times = [seconds(t) for r in rounds for t in getattr(r, kind)]
        if not times:
            return 0.0
        return statistics.median(len(getattr(r, kind)) for r in rounds) * statistics.median(times)

    wins = windows(rounds, calibrated)
    tasks = sum(len(r.input_tokens) for r in rounds)
    return {
        "setup_s": per_round("open_s") + per_round("submit_s"),
        "wakeup_ms_p50": statistics.median(statistics.median(w) for w in wins),
        "wakeup_ms_p90": statistics.median(
            statistics.quantiles(w, n=10, method="inclusive")[-1] for w in wins),
        "sessions_per_s": statistics.median(
            r.sessions_done / sum(seconds(d) for d in r.drain_s) for r in rounds),
        "task_ms_p50": statistics.median(
            statistics.median(seconds(t) for t in r.task_s) * 1000 for r in rounds),
        "input_tokens_per_task": sum(sum(r.input_tokens) for r in rounds) / tasks,
        "written_kb_per_wakeup": (sum(r.written_bytes for r in rounds)
                                  / sum(len(r.wakeups) for r in rounds) / 1000),
    }
