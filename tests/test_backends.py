"""Scripted and HTTP backends plus the usage log."""

import itertools
import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import skillet
from skillet import ScriptedBackend, UsageLog, backends
from skillet.backends import (
    HttpBackend,
    ModelRequest,
    ModelResponse,
    UsageRecord,
    _tool_surface_chars,
)
from skillet.errors import (
    LogWriteError,
    ModelBackendError,
    ScriptExhausted,
    ScriptToolNotVisible,
)
from skillet.schema import ActionSchema, ParamSpec, object_spec
from skillet.workspace import orchestration_schemas

from conftest import open_store

TOOL_A = ActionSchema("t_alpha", "does a", object_spec({}, []), "e")
TOOL_B = ActionSchema("t_beta", "does b", object_spec({"x": ParamSpec("int")}, []), "e")


def run_threads(target, args_list, timeout=60):
    threads = [threading.Thread(target=target, args=args) for args in args_list]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)


def request(messages=None, tools=(TOOL_A, TOOL_B), session_id="s0001"):
    return ModelRequest(
        messages=messages or [("user", "hello")],
        tools=list(tools),
        session_id=session_id,
    )


class TestScripted:
    def test_step_with_no_predicate_matches_first(self):
        backend = ScriptedBackend([{"respond": {"text": "hi"}}])
        response = backend.complete(request())
        assert response.text == "hi"
        assert response.tool_call is None
        with pytest.raises(ScriptExhausted):  # the step was consumed
            backend.complete(request())

    def test_exhausted(self):
        with pytest.raises(ScriptExhausted):
            ScriptedBackend([]).complete(request())

    def test_tool_not_visible_raises(self):
        backend = ScriptedBackend(
            [{"respond": {"tool_call": {"name": "t_hidden", "args": {}}}}])
        with pytest.raises(ScriptToolNotVisible, match="t_hidden"):
            backend.complete(request())

    def test_phase_predicate_matches_last_message_only(self):
        backend = ScriptedBackend([
            {"when": {"phase_contains": "phase: verify"}, "respond": {"text": "v"}},
            {"respond": {"text": "fallback"}},
        ])
        stale = request(messages=[("user", "phase: verify earlier"), ("user", "phase: patch")])
        assert backend.complete(stale).text == "fallback"
        assert backend.complete(request(messages=[("user", "phase: verify")])).text == "v"

    def test_tool_visible_predicate(self):
        backend = ScriptedBackend([
            {"when": {"tool_visible": "t_gamma"}, "respond": {"text": "gamma!"}},
            {"respond": {"text": "plain"}},
        ])
        assert backend.complete(request()).text == "plain"

    def test_session_predicate(self):
        backend = ScriptedBackend([
            {"when": {"session": "s0002"}, "respond": {"text": "for s0002"}},
            {"when": {"session": "s0001"}, "respond": {"text": "for s0001"}},
        ])
        assert backend.complete(request(session_id="s0001")).text == "for s0001"
        with pytest.raises(ScriptExhausted):
            backend.complete(request(session_id="s0003"))
        assert backend.complete(request(session_id="s0002")).text == "for s0002"

    def test_unmatched_steps_are_kept(self):
        backend = ScriptedBackend([
            {"when": {"phase_contains": "later"}, "respond": {"text": "second"}},
            {"respond": {"text": "first"}},
        ])
        assert backend.complete(request()).text == "first"
        assert backend.complete(request(messages=[("user", "later")])).text == "second"

    def test_deterministic_responses_and_usage(self):
        steps = [{"respond": {"tool_call": {"name": "t_alpha", "args": {"k": 1}}}},
                 {"respond": {"text": "done"}}]
        seen = []
        for _ in range(2):
            backend = ScriptedBackend(json.loads(json.dumps(steps)))
            r1 = backend.complete(request())
            r2 = backend.complete(request())
            seen.append([(r1.tool_call.name, r1.usage.total_tokens),
                         (r2.text, r2.usage.total_tokens)])
        assert seen[0] == seen[1]

    def test_usage_shrinks_with_fewer_tools(self):
        steps = [{"respond": {"text": "ok"}}]
        wide = ScriptedBackend(list(steps)).complete(request(tools=[TOOL_A, TOOL_B]))
        narrow = ScriptedBackend(list(steps)).complete(request(tools=[TOOL_A]))
        assert narrow.usage.input_tokens < wide.usage.input_tokens

    def test_usage_totals_are_consistent(self):
        response = ScriptedBackend([{"respond": {"text": "ok"}}]).complete(request())
        u = response.usage
        assert u.total_tokens == u.input_tokens + u.output_tokens + u.cache_tokens
        assert u.provider == "scripted"

    def test_threads_sharing_a_script_get_each_step_once(self):
        backend = ScriptedBackend([{"respond": {"text": f"step {i}"}} for i in range(400)])
        start = threading.Barrier(8)
        handed_out = [[] for _ in range(8)]

        def drain(mine):
            start.wait()
            while True:
                try:
                    mine.append(backend.complete(request()).text)
                except ScriptExhausted:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            run_threads(drain, [(mine,) for mine in handed_out])
        finally:
            sys.setswitchinterval(interval)
        texts = [text for mine in handed_out for text in mine]
        assert sorted(texts) == sorted(f"step {i}" for i in range(400))

    def test_tool_surface_chars_equal_the_serialized_surface(self, shared_registry):
        tools = orchestration_schemas() + shared_registry.lookup("repair").tools

        def serialized(surface):
            return len(json.dumps([t.to_public_dict() for t in surface], sort_keys=True))

        # every prefix of every rotation of the builtin tools, both ways round,
        # and every ordered choice of up to three of them
        orders = [tools[i:] + tools[:i] for i in range(len(tools))]
        orders += [order[::-1] for order in orders]
        surfaces = [order[:n] for order in orders for n in range(len(tools) + 1)]
        surfaces += [list(p) for r in range(4) for p in itertools.permutations(tools, r)]
        for surface in surfaces:
            assert _tool_surface_chars(surface) == serialized(surface)


class TestImports:
    def test_a_scripted_run_never_loads_the_http_stack(self):
        code = (
            "import sys\n"
            "import skillet.cli\n"
            "print(sorted(m for m in ('urllib.request', 'urllib.error', 'http.client',\n"
            "                         'email', 'ssl') if m in sys.modules))\n"
        )
        src = str(Path(skillet.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class _StubHandler(BaseHTTPRequestHandler):
    canned: tuple[int, bytes] = (200, b"{}")
    last_body: dict = {}

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        type(self).last_body = json.loads(self.rfile.read(length))
        status, body = self.canned
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


def http_backend(server) -> HttpBackend:
    return HttpBackend(f"http://127.0.0.1:{server.server_port}", api_key="k", model="m1")


class TestHttp:
    def test_normalizes_tool_call_response(self, stub_server):
        _StubHandler.canned = (200, json.dumps({
            "model": "m1-0608",
            "choices": [{"message": {
                "content": "patching now",
                "tool_calls": [{"function": {
                    "name": "t_alpha", "arguments": json.dumps({"x": 2})}}],
            }}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 7, "total_tokens": 18},
        }).encode())
        response = http_backend(stub_server).complete(request())
        assert response.tool_call.name == "t_alpha"
        assert response.tool_call.args == {"x": 2}
        assert response.usage.input_tokens == 11
        assert response.usage.response_model == "m1-0608"
        sent = _StubHandler.last_body
        assert [t["function"]["name"] for t in sent["tools"]] == ["t_alpha", "t_beta"]

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": 11, "completion_tokens": 7, "total_tokens": 18,
         "prompt_tokens_details": {"cached_tokens": 4}},
        {"prompt_tokens": 11, "completion_tokens": 7, "total_tokens": 18, "cached_tokens": 4},
    ], ids=["nested", "top_level"])
    def test_cached_tokens(self, stub_server, usage):
        _StubHandler.canned = (200, json.dumps({
            "choices": [{"message": {"content": "ok"}}], "usage": usage,
        }).encode())
        response = http_backend(stub_server).complete(request())
        assert response.usage.cache_tokens == 4
        assert response.usage.total_tokens == 18

    def test_429_is_retryable(self, stub_server):
        _StubHandler.canned = (429, b"slow down")
        with pytest.raises(ModelBackendError) as exc:
            http_backend(stub_server).complete(request())
        assert exc.value.retryable is True
        assert exc.value.status == 429

    def test_unparseable_body_not_retryable(self, stub_server):
        _StubHandler.canned = (200, b"<html>oops</html>")
        with pytest.raises(ModelBackendError) as exc:
            http_backend(stub_server).complete(request())
        assert exc.value.retryable is False

    def test_multiple_tool_calls_rejected(self, stub_server):
        _StubHandler.canned = (200, json.dumps({
            "choices": [{"message": {"content": "", "tool_calls": [
                {"function": {"name": "a", "arguments": "{}"}},
                {"function": {"name": "b", "arguments": "{}"}},
            ]}}],
        }).encode())
        with pytest.raises(ModelBackendError, match="single-step"):
            http_backend(stub_server).complete(request())

    def test_unreachable_endpoint(self):
        backend = HttpBackend("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(ModelBackendError) as exc:
            backend.complete(request())
        assert exc.value.retryable is True


def chat_response(model="m1", text="", tool_call=None, prompt_tokens=10,
                  completion_tokens=5):
    message = {"content": text}
    if tool_call is not None:
        name, args = tool_call
        message["tool_calls"] = [{"function": {"name": name,
                                               "arguments": json.dumps(args)}}]
    return json.dumps({
        "model": model,
        "choices": [{"message": message}],
        "usage": {"prompt_tokens": prompt_tokens,
                  "completion_tokens": completion_tokens,
                  "total_tokens": prompt_tokens + completion_tokens},
    }).encode()


class _SequenceHandler(BaseHTTPRequestHandler):
    """Replays a recorded conversation: one canned body per POST, in order."""

    replies: list[bytes] = []
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        type(self).requests_seen.append(json.loads(self.rfile.read(length)))
        body = type(self).replies.pop(0)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestHttpPlannerIntegration:
    """Drive the full repair loop through the HTTP backend."""

    def test_repair_run_over_http(self, tmp_path):
        from skillet import (
            DelegatedTask, RunConfig, Runtime, SkillRegistry, builtin_skills_dir,
        )
        from skillet.sessions import SessionStatus

        ws = tmp_path / "ws"
        (ws / "in").mkdir(parents=True)
        (ws / "in" / "calc.py").write_text("def add(a, b):\n    return a - b\n")
        (ws / "in" / "test_calc.py").write_text(
            "ns = {}\nexec(open('in/calc.py').read(), ns)\n"
            "assert ns['add'](2, 3) == 5\nprint('ok')\n")

        patch_body = ("@@ -1,2 +1,2 @@\n def add(a, b):\n"
                      "-    return a - b\n+    return a + b\n")
        _SequenceHandler.replies = [
            chat_response(tool_call=("repair_collect_evidence",
                                     {"command": ["python3", "in/test_calc.py"]})),
            chat_response(tool_call=("repair_apply_unified_patch",
                                     {"target": "in/calc.py", "body": patch_body})),
            chat_response(tool_call=("repair_run_verification", {"checks": [
                {"name": "tests", "type": "command_exit_zero",
                 "args": {"argv": ["python3", "in/test_calc.py"]}}]})),
            chat_response(tool_call=("repair_write_artifact",
                                     {"path": "out/report.md", "content": "# fixed\n"})),
            chat_response(tool_call=("finish", {"report_text": "all green"})),
        ]
        _SequenceHandler.requests_seen = []
        server = HTTPServer(("127.0.0.1", 0), _SequenceHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            registry = SkillRegistry()
            registry.load_all(builtin_skills_dir())
            store = open_store(tmp_path / "store")
            usage_log = UsageLog(tmp_path / "store" / "requests.jsonl")
            backend = HttpBackend(f"http://127.0.0.1:{server.server_port}", model="m1")
            config = RunConfig.from_dict(
                {"workspace": {"command_allowlist": ["python3"]}})
            runtime = Runtime(registry, store, backend, usage_log, config)
            runtime.submit_task(DelegatedTask(
                "fix the failing repair bug test", "code_repair", ws,
                "write `out/report.md`"))
            runtime.run_until_quiescent(10)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=2)

        session = store.session("s0001")
        assert session.status is SessionStatus.COMPLETED
        assert (ws / "out" / "report.md").is_file()

        # tools serialized per request reflect the hook-filtered visible set
        first, last = _SequenceHandler.requests_seen[0], _SequenceHandler.requests_seen[-1]
        first_tools = {t["function"]["name"] for t in first["tools"]}
        assert "repair_collect_evidence" in first_tools
        assert "repair_apply_unified_patch" not in first_tools
        assert any("tool_result" in m["content"] for m in last["messages"])

        lines = [json.loads(l) for l in
                 (tmp_path / "store" / "requests.jsonl").read_text().splitlines()]
        assert len(lines) == 5
        assert {l["provider"] for l in lines} == {"http"}
        assert {l["response_model"] for l in lines} == {"m1"}
        assert session.usage.total_tokens == sum(l["total_tokens"] for l in lines)
        assert session.usage.input_tokens == 50  # five requests x prompt_tokens=10


class TestUsageLog:
    def make_session(self, tmp_path):
        ws = tmp_path / "ws"
        ws.mkdir()
        return open_store(tmp_path / "store").create_session("t", "misc", ws, "")

    def test_line_schema_and_totals(self, tmp_path):
        session = self.make_session(tmp_path)
        log = UsageLog(tmp_path / "requests.jsonl")
        backend = ScriptedBackend([{"respond": {"text": "one"}},
                                   {"respond": {"text": "two"}}])
        for _ in range(2):
            req = request(session_id=session.session_id)
            log.record(session, req, backend.complete(req))
        lines = log.lines()
        assert len(lines) == 2
        expected_keys = {"ts_us", "session_id", "provider", "response_model",
                         "input_tokens", "output_tokens", "cache_tokens",
                         "total_tokens", "assistant_text", "tool_call"}
        assert set(lines[0]) == expected_keys
        assert isinstance(lines[0]["ts_us"], int)
        assert session.usage.request_count == 2
        assert session.usage.total_tokens == sum(l["total_tokens"] for l in lines)

    def test_lines_keep_one_width_whatever_the_clock(self, tmp_path, monkeypatch):
        session = self.make_session(tmp_path)
        log = UsageLog(tmp_path / "requests.jsonl")
        clocks = iter([1760000000.5, 1760000000.123456])  # reprs of 12 and 17 chars
        monkeypatch.setattr(backends.time, "time", lambda: next(clocks))
        response = ModelResponse(text="same", usage=UsageRecord("p", "m", 1, 1, 0, 2))
        for _ in range(2):
            log.record(session, request(session_id=session.session_id), response)
        first, second = (tmp_path / "requests.jsonl").read_bytes().splitlines()
        assert first != second
        assert len(first) == len(second)
        assert [line["ts_us"] for line in log.lines()] == [1760000000500000, 1760000000123456]

    def test_zero_requests_zero_totals(self, tmp_path):
        session = self.make_session(tmp_path)
        assert session.usage.total_tokens == 0
        assert session.usage.request_count == 0

    def test_mixed_providers_in_one_log(self, tmp_path, stub_server):
        session = self.make_session(tmp_path)
        log = UsageLog(tmp_path / "requests.jsonl")
        req = request(session_id=session.session_id)
        log.record(session, req, ScriptedBackend([{"respond": {"text": "s"}}]).complete(req))
        _StubHandler.canned = (200, json.dumps({
            "choices": [{"message": {"content": "h"}}],
            "usage": {"prompt_tokens": 3, "completion_tokens": 1},
        }).encode())
        log.record(session, req, http_backend(stub_server).complete(req))
        providers = [l["provider"] for l in log.lines()]
        assert providers == ["scripted", "http"]
        assert session.usage.request_count == 2

    def test_lines_skip_a_torn_last_line_without_writing(self, tmp_path):
        session = self.make_session(tmp_path)
        log = UsageLog(tmp_path / "requests.jsonl")
        backend = ScriptedBackend([{"respond": {"text": "one"}},
                                   {"respond": {"text": "two"}}])
        for _ in range(2):
            req = request(session_id=session.session_id)
            log.record(session, req, backend.complete(req))
        log.path.write_bytes(log.path.read_bytes()[:-9])  # a crash mid-append
        torn = log.path.read_bytes()
        assert [l["assistant_text"] for l in log.lines()] == ["one"]
        assert log.path.read_bytes() == torn

    @staticmethod
    def usage_response(n):
        return ModelResponse(text=f"r{n}", usage=UsageRecord("p", "m", n, 2 * n, 1, 3 * n + 1))

    def test_concurrent_records_are_group_committed(self, tmp_path, monkeypatch):
        sessions = [self.make_session(tmp_path)]
        store = open_store(tmp_path / "store")
        sessions += [store.create_session("t", "misc", tmp_path / "ws", "") for _ in range(3)]
        log = UsageLog(tmp_path / "requests.jsonl")
        fsyncs = []
        real_fsync = os.fsync

        def slow_fsync(fd):
            fsyncs.append(fd)
            time.sleep(0.002)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        start = threading.Barrier(16)

        def writer(t):
            start.wait()
            for i in range(25):
                session = sessions[(t + i) % len(sessions)]
                log.record(session, request(session_id=session.session_id),
                           self.usage_response(t * 25 + i))

        run_threads(writer, [(t,) for t in range(16)])
        lines = log.lines()
        assert len(lines) == 400
        assert len(log.path.read_bytes().splitlines()) == 400
        assert sorted(l["input_tokens"] for l in lines) == list(range(400))
        assert len(fsyncs) < 400
        for session in sessions:
            mine = [l for l in lines if l["session_id"] == session.session_id]
            assert session.usage.request_count == len(mine)
            for column in ("input_tokens", "output_tokens", "cache_tokens", "total_tokens"):
                assert getattr(session.usage, column) == sum(l[column] for l in mine)

    def test_every_caller_in_a_failed_batch_raises(self, tmp_path, monkeypatch):
        session = self.make_session(tmp_path)
        log = UsageLog(tmp_path / "requests.jsonl")
        fsyncs = []

        def failing_fsync(fd):
            fsyncs.append(fd)
            time.sleep(0.1)  # the other callers queue into the next batch meanwhile
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        start = threading.Barrier(8)
        outcomes = []

        def writer(n):
            start.wait()
            try:
                log.record(session, request(session_id=session.session_id),
                           self.usage_response(n))
            except LogWriteError:
                outcomes.append("raised")
            else:
                outcomes.append("returned")

        run_threads(writer, [(n,) for n in range(8)])
        assert outcomes == ["raised"] * 8
        assert len(fsyncs) < 8  # some batch held more than one caller
        assert session.usage.request_count == 0
        # the next batch cuts whatever the failed one left and appends whole
        monkeypatch.undo()
        log.record(session, request(session_id=session.session_id), self.usage_response(9))
        assert len(log.lines()) == 9
        assert session.usage.request_count == 1

    def test_write_failure_is_fatal(self, tmp_path):
        session = self.make_session(tmp_path)
        blocked = tmp_path / "as_dir"
        blocked.mkdir()
        log = UsageLog(blocked)  # appending to a directory cannot work
        req = request(session_id=session.session_id)
        response = ScriptedBackend([{"respond": {"text": "x"}}]).complete(req)
        with pytest.raises(LogWriteError):
            log.record(session, req, response)
        assert session.usage.request_count == 0
