"""`tests/canonical_logs.py` is deterministic: two runs of it write
byte-identical trees, so comparing its output for two versions of skillet
with `diff -r` shows only what changed between the versions."""

import os
import subprocess
import sys
from pathlib import Path

import skillet

SCRIPT = Path(__file__).with_name("canonical_logs.py")


def written(root: Path) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_two_runs_write_byte_identical_logs(tmp_path):
    # the script drives the skillet these tests import
    path = [str(Path(skillet.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for run in ("first", "second"):
        subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / run)],
                       env=env, check=True, timeout=120)
    first, second = written(tmp_path / "first"), written(tmp_path / "second")
    assert {name.split("/")[0] for name in first} == {
        "plain-single", "plain-threaded", "delegated-single", "delegated-threaded"}
    assert sorted(first) == sorted(second)
    assert [name for name in sorted(first) if first[name] != second[name]] == []
