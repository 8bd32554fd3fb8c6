"""CLI contract: exit codes, summary output, skill listing, trace rendering."""

import json

import pytest

from skillet import builtin_skills_dir
from skillet.cli import main

from conftest import repair_script, REPAIR_DONE_WHEN, REPAIR_TASK_TEXT


@pytest.fixture
def script_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(repair_script()))
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"workspace": {"command_allowlist": ["python3"]}}))
    return path


def run_args(repair_workspace, tmp_path, script_file, config_file, store="store"):
    return [
        "run",
        "--skills", str(builtin_skills_dir()),
        "--store", str(tmp_path / store),
        "--workspace", str(repair_workspace),
        "--task", REPAIR_TASK_TEXT,
        "--task-type", "code_repair",
        "--done-when", REPAIR_DONE_WHEN,
        "--script", str(script_file),
        "--config", str(config_file),
    ]


class TestRun:
    def test_scripted_fixture_exits_zero(self, repair_workspace, tmp_path,
                                         script_file, config_file, capsys):
        code = main(run_args(repair_workspace, tmp_path, script_file, config_file))
        out = capsys.readouterr().out
        assert code == 0
        assert "s0001" in out
        assert "status=completed" in out
        assert (repair_workspace / "out" / "report.md").is_file()

    def test_missing_skills_dir_names_path(self, repair_workspace, tmp_path,
                                           script_file, config_file, capsys):
        args = run_args(repair_workspace, tmp_path, script_file, config_file)
        args[args.index("--skills") + 1] = str(tmp_path / "no-skills-here")
        code = main(args)
        err = capsys.readouterr().err
        assert code == 1
        assert "no-skills-here" in err

    def test_budget_exhaustion_exits_two(self, repair_workspace, tmp_path,
                                         script_file, capsys):
        config = tmp_path / "tight.json"
        config.write_text(json.dumps({
            "workspace": {"command_allowlist": ["python3"]},
            "planner": {"max_steps": 1},
        }))
        code = main(run_args(repair_workspace, tmp_path, script_file, config))
        out = capsys.readouterr().out
        assert code == 2
        assert "awaiting_followup" in out

    def test_failed_root_exits_one(self, guarded_workspace, tmp_path, config_file, capsys):
        script = tmp_path / "empty_script.json"
        script.write_text("[]")
        code = main([
            "run", "--skills", str(builtin_skills_dir()),
            "--store", str(tmp_path / "store"),
            "--workspace", str(guarded_workspace),
            "--task", "anything", "--script", str(script),
            "--config", str(config_file),
        ])
        assert code == 1


class TestSkills:
    def test_lists_repair(self, capsys):
        code = main(["skills", "--skills", str(builtin_skills_dir())])
        out = capsys.readouterr().out
        assert code == 0
        assert "repair v1.0.0" in out
        assert "repair_collect_evidence" in out
        assert "code_repair" in out


class TestTrace:
    def test_trace_shows_phase_transitions_and_usage(self, repair_workspace, tmp_path,
                                                     script_file, config_file, capsys):
        main(run_args(repair_workspace, tmp_path, script_file, config_file))
        capsys.readouterr()
        code = main(["trace", "--store", str(tmp_path / "store"), "--session", "s0001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "guidance_injection" in out
        assert "phase=verify" in out
        assert "phase=report" in out
        assert "[tokens in=" in out
        assert "completion" in out

    def test_trace_marks_superseded_guidance(self, repair_workspace, tmp_path,
                                             script_file, config_file, capsys):
        main(run_args(repair_workspace, tmp_path, script_file, config_file))
        capsys.readouterr()
        code = main(["trace", "--store", str(tmp_path / "store"), "--session", "s0001"])
        out = capsys.readouterr().out
        assert code == 0
        guidance = [line for line in out.splitlines() if "guidance_injection" in line]
        assert len(guidance) == 5  # one workflow block per wakeup
        # every block but the last was superseded by the next wakeup's
        assert ["[superseded]" in line for line in guidance] == [True] * 4 + [False]
        assert "phase: report" in guidance[-1]
        assert out.count("[superseded]") == 4

    def test_trace_marks_superseded_reads_and_refused_arguments(
            self, repair_workspace, tmp_path, config_file, capsys):
        def step(phase, name, args):
            return {"when": {"phase_contains": f"phase: {phase}"},
                    "respond": {"tool_call": {"name": name, "args": args}}}

        canonical = repair_script()
        script = tmp_path / "reads.json"
        script.write_text(json.dumps([
            canonical[0],
            step("patch", "fs_read", {"path": "in/calc.py"}),
            step("patch", "repair_apply_unified_patch", {"target": "in/calc.py",
                                                         "body": "not a diff"}),
            canonical[1],
            step("verify", "fs_read", {"path": "in/calc.py"}),
            *canonical[2:],
        ]))
        assert main(run_args(repair_workspace, tmp_path, script, config_file)) == 0
        capsys.readouterr()
        code = main(["trace", "--store", str(tmp_path / "store"), "--session", "s0001"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        reads = [line for line in lines if "tool_result" in line and '"fs_read"' in line]
        assert ["[superseded]" in line for line in reads] == [True, False]
        marked = [i for i, line in enumerate(lines) if "[args not sent again]" in line]
        assert len(marked) == 1
        assert "assistant_message" in lines[marked[0]]
        call = next(line for line in lines[marked[0]:] if " tool_call " in line)
        assert '"accepted": false' in call and '"args"' not in call
        assert not any("[args not sent again]" in line or "[superseded]" in line
                       for line in lines if "tool_call" in line and "fs_read" in line)

    def test_torn_usage_log_tail_is_skipped_and_left_alone(
            self, repair_workspace, tmp_path, script_file, config_file, capsys):
        main(run_args(repair_workspace, tmp_path, script_file, config_file))
        capsys.readouterr()
        requests = tmp_path / "store" / "requests.jsonl"
        whole = requests.read_bytes().count(b"\n")
        # a runtime may be appending to the log while an operator traces it
        requests.write_bytes(requests.read_bytes()[:-9])
        torn = requests.read_bytes()
        code = main(["trace", "--store", str(tmp_path / "store"), "--session", "s0001"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[tokens in=") == whole - 1
        assert requests.read_bytes() == torn

    def test_torn_session_log_tail_is_left_alone(
            self, repair_workspace, tmp_path, script_file, config_file, capsys):
        main(run_args(repair_workspace, tmp_path, script_file, config_file))
        capsys.readouterr()
        log = tmp_path / "store" / "sessions" / "s0001.log"
        log.write_bytes(log.read_bytes()[:-9])
        torn = log.read_bytes()
        code = main(["trace", "--store", str(tmp_path / "store"), "--session", "s0001"])
        assert code == 0
        assert "user_message" in capsys.readouterr().out
        assert log.read_bytes() == torn

    def test_unknown_session(self, repair_workspace, tmp_path, script_file,
                             config_file, capsys):
        main(run_args(repair_workspace, tmp_path, script_file, config_file))
        capsys.readouterr()
        code = main(["trace", "--store", str(tmp_path / "store"), "--session", "s0999"])
        assert code == 1
        assert "s0999" in capsys.readouterr().err

    def test_empty_store_trace(self, tmp_path, capsys):
        code = main(["trace", "--store", str(tmp_path / "empty-store"),
                     "--session", "s0001"])
        assert code == 1

    def test_missing_store_is_not_created(self, tmp_path, capsys):
        code = main(["trace", "--store", str(tmp_path / "nostore"), "--session", "s0001"])
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    def test_log_still_being_created_is_left_in_place(self, tmp_path, capsys):
        # create_session leaves an empty log between creating it and writing its meta line
        log = tmp_path / "store" / "sessions" / "s0001.log"
        log.parent.mkdir(parents=True)
        log.touch()
        code = main(["trace", "--store", str(tmp_path / "store"), "--session", "s0001"])
        assert code == 1
        assert "s0001" in capsys.readouterr().err
        assert log.read_bytes() == b""
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["sessions"]

    def test_corrupt_log_of_another_session_is_not_read(
            self, repair_workspace, tmp_path, script_file, config_file, capsys):
        main(run_args(repair_workspace, tmp_path, script_file, config_file))
        capsys.readouterr()
        other = tmp_path / "store" / "sessions" / "s0002.log"
        other.write_bytes(b'{"seq": 0, "kind": "sess\n{"seq": 1}\n')
        code = main(["trace", "--store", str(tmp_path / "store"), "--session", "s0001"])
        assert code == 0
        assert "completion" in capsys.readouterr().out

    def test_session_id_outside_the_id_pattern_is_unknown(
            self, repair_workspace, tmp_path, script_file, config_file, capsys):
        main(run_args(repair_workspace, tmp_path, script_file, config_file))
        capsys.readouterr()
        # names the real s0001.log through a path, not by its id
        code = main(["trace", "--store", str(tmp_path / "store"),
                     "--session", "../sessions/s0001"])
        assert code == 1
        assert "unknown session" in capsys.readouterr().err


class TestHttpFlag:
    def test_http_backend_configured_from_environment(self, guarded_workspace, tmp_path,
                                                      monkeypatch, capsys):
        import threading
        from http.server import HTTPServer
        from test_backends import _SequenceHandler, chat_response

        _SequenceHandler.replies = [chat_response(text="nothing to do here")]
        _SequenceHandler.requests_seen = []
        server = HTTPServer(("127.0.0.1", 0), _SequenceHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("MODEL_BASE_URL", f"http://127.0.0.1:{server.server_port}")
            monkeypatch.setenv("MODEL_API_KEY", "k")
            monkeypatch.setenv("MODEL_NAME", "m9")
            code = main([
                "run", "--skills", str(builtin_skills_dir()),
                "--store", str(tmp_path / "store"),
                "--workspace", str(guarded_workspace),
                "--task", "say hi", "--http",
            ])
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=2)
        assert code == 0
        assert "status=completed" in capsys.readouterr().out
        assert _SequenceHandler.requests_seen[0]["model"] == "m9"

    def test_http_without_base_url_is_an_error(self, guarded_workspace, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.delenv("MODEL_BASE_URL", raising=False)
        code = main([
            "run", "--skills", str(builtin_skills_dir()),
            "--store", str(tmp_path / "store"),
            "--workspace", str(guarded_workspace),
            "--task", "say hi", "--http",
        ])
        assert code == 1
        assert "MODEL_BASE_URL" in capsys.readouterr().err


class TestReplayViaCli:
    def test_same_config_twice_gives_identical_logs(self, tmp_path, script_file,
                                                    config_file, capsys):
        from conftest import BUGGY_CALC, CALC_TEST
        import shutil

        ws = tmp_path / "ws"

        def reset():
            if ws.exists():
                shutil.rmtree(ws)
            (ws / "in").mkdir(parents=True)
            (ws / "in" / "calc.py").write_text(BUGGY_CALC)
            (ws / "in" / "test_calc.py").write_text(CALC_TEST)

        logs = []
        for store in ("store-a", "store-b"):
            reset()
            script = tmp_path / f"{store}-script.json"
            script.write_text(json.dumps(repair_script()))
            assert main(run_args(ws, tmp_path, script, config_file, store=store)) == 0
            log_dir = tmp_path / store / "sessions"
            logs.append({p.name: p.read_bytes() for p in sorted(log_dir.glob("*.log"))})
        capsys.readouterr()
        assert logs[0] == logs[1]
