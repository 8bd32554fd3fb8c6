"""List what the test suite never runs in `skillet`: statements, and
`if`/`while` tests that went only one way. It needs no `coverage` package.

    PYTHONPATH=<checkout>/src python tests/branch_trace.py [pytest args ...]

Runs pytest in this process (tier-1 by default, with the cache
plugin off and no bytecode written, so it writes nothing into the checkout)
under `sys.settrace` and `threading.settrace`. Only frames of the `skillet`
that comes first on the path are traced. Then it prints:
- each line with bytecode that never ran, as `file:line`, runs of lines
  joined as `file:first-last`;
- each `if`, `elif` or `while` test that went only one way, as
  `file:line only true` or `only false`, with the line's text.
A test went true when the next line its frame ran was the first line of its
body, and false when that was any other line or the frame returned; a test
that raised counts as neither. A test on the same line as its body, and a
constant test such as `while True`, is not listed. Code that only a child
process runs counts as never run. Exits with pytest's status. Pytest does not
collect it.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from types import CodeType

RETURN = 0  # the line an arc goes to when its frame returns


def package_dir() -> Path:
    spec = importlib.util.find_spec("skillet")  # found, not imported
    if spec is None:
        sys.exit("error: no skillet on the path; set PYTHONPATH=<checkout>/src")
    return Path(next(iter(spec.submodule_search_locations)))


def trace(prefix: str, run):
    """Run `run()` tracing the frames of files under `prefix`: the lines each
    file ran, the arcs (line, next line its frame ran) between them, and
    what `run` returned."""
    lines: dict[str, set[int]] = defaultdict(set)
    arcs: dict[str, set[tuple[int, int]]] = defaultdict(set)

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran, went = lines[filename], arcs[filename]
        last = None

        def on_line(frame, event, arg):
            nonlocal last
            if event == "line":
                ran.add(frame.f_lineno)
                if last is not None:
                    went.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "exception":
                last = None  # where it lands says nothing about a test's outcome
            elif event == "return" and last is not None:
                went.add((last, RETURN))
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return lines, arcs, status


def code_lines(code: CodeType) -> set[int]:
    """The lines that have bytecode in `code` and the code nested in it."""
    found = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found |= code_lines(const)
    return found


def first_line(stmt: ast.stmt) -> int:
    decorators = getattr(stmt, "decorator_list", [])
    return min([stmt.lineno] + [d.lineno for d in decorators])


def one_way_tests(tree: ast.Module, went: set[tuple[int, int]]) -> list[tuple[int, str]]:
    """Each `if`/`while` test that ran and went only one way: its line and
    the way it went, `true` or `false`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.While)) or isinstance(node.test, ast.Constant):
            continue
        span = range(node.lineno, node.test.end_lineno + 1)
        body = first_line(node.body[0])
        if body in span:
            continue
        outcomes = {to == body for source, to in went if source in span and to not in span}
        if len(outcomes) == 1:
            found.append((node.lineno, "true" if outcomes.pop() else "false"))
    return sorted(found)


def ranges(numbers: list[int]) -> list[str]:
    """Runs of consecutive numbers, as `a` or `a-b`."""
    runs: list[list[int]] = []
    for n in numbers:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return [str(a) if a == b else f"{a}-{b}" for a, b in runs]


def report(package: Path, lines, arcs) -> None:
    never_ran, one_way = [], []
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        name = path.relative_to(package.parent).as_posix()
        ran = lines.get(str(path), set())
        missing = sorted(code_lines(compile(source, str(path), "exec")) - ran)
        never_ran += [f"{name}:{r}" for r in ranges(missing)]
        text = source.splitlines()
        for line, way in one_way_tests(ast.parse(source), arcs.get(str(path), set())):
            one_way.append(f"{name}:{line} only {way}  | {text[line - 1].strip()}")
    print(f"lines never run ({len(never_ran)} runs):")
    for entry in never_ran:
        print(f"  {entry}")
    print(f"if/while tests that went one way ({len(one_way)}):")
    for entry in one_way:
        print(f"  {entry}")


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    package = package_dir()
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # and in the child processes
    os.chdir(root)
    import pytest

    args = ["-q", "-p", "no:cacheprovider", *(argv or ["--continue-on-collection-errors"])]
    lines, arcs, status = trace(str(package) + os.sep, lambda: pytest.main(args))
    report(package, lines, arcs)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
