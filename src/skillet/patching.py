r"""Unified-diff parsing and strict, all-or-nothing application.

Hunk context must match exactly (no fuzz): either every hunk applies at its
stated position against the current file content, or nothing is written.
`---`/`+++` file header lines are tolerated and ignored; the target path is
carried separately by the patch tool call.

Only "\n" ends a line, in the file and in the diff. Lines compare without
their "\n" or "\r\n" ending, so a diff with LF endings applies to a CRLF
file; every byte outside the hunks, and every context line, is kept as it
was.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import HunkMismatch

HUNK_HEADER_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


@dataclass
class Hunk:
    old_start: int
    old_count: int
    new_start: int
    new_count: int
    # each tagged ' ', '+', or '-', then the text, then "\n" unless the diff
    # marks the line "\ No newline at end of file"
    lines: list[str] = field(default_factory=list)

    def old_lines(self) -> list[str]:
        return [_text(l[1:]) for l in self.lines if l[0] in " -"]


def _text(line: str) -> str:
    r"""`line` without its "\n" or "\r\n" ending."""
    return line.removesuffix("\n").removesuffix("\r")


def split_lines(text: str) -> list[str]:
    r"""`text`'s lines, each with its "\n" ending; the last has none when
    `text` does not end in "\n"."""
    return re.findall(r"[^\n]*\n|[^\n]+", text)


class PatchFormatError(ValueError):
    """Body is not a usable unified diff (e.g. no @@ hunk header)."""


def parse_unified_diff(body: str) -> list[Hunk]:
    lines = [_text(l) for l in split_lines(body)]
    hunks: list[Hunk] = []
    i = 0
    # skip optional ---/+++ headers and any diff preamble before the first hunk
    while i < len(lines) and not lines[i].startswith("@@"):
        i += 1
    if i == len(lines):
        raise PatchFormatError("patch body contains no @@ hunk header")
    while i < len(lines):
        m = HUNK_HEADER_RE.match(lines[i])
        if not m:
            raise PatchFormatError(f"expected @@ hunk header, got {lines[i]!r}")
        hunk = Hunk(
            old_start=int(m.group(1)),
            old_count=int(m.group(2)) if m.group(2) is not None else 1,
            new_start=int(m.group(3)),
            new_count=int(m.group(4)) if m.group(4) is not None else 1,
        )
        i += 1
        while i < len(lines) and not lines[i].startswith("@@"):
            line = lines[i]
            if line.startswith("\\"):  # "\ No newline at end of file"
                if hunk.lines:
                    hunk.lines[-1] = hunk.lines[-1].removesuffix("\n")
                i += 1
                continue
            if line == "":
                line = " "  # blank context line with the leading space trimmed
            if line[0] not in " +-":
                raise PatchFormatError(f"unexpected patch line {line!r}")
            hunk.lines.append(line + "\n")
            i += 1
        old_n = sum(1 for l in hunk.lines if l[0] in " -")
        new_n = sum(1 for l in hunk.lines if l[0] in " +")
        if old_n != hunk.old_count or new_n != hunk.new_count:
            raise PatchFormatError(
                f"hunk @@ -{hunk.old_start},{hunk.old_count} +{hunk.new_start},{hunk.new_count} @@ "
                f"declares counts that do not match its body ({old_n}/{new_n})"
            )
        hunks.append(hunk)
    return hunks


def count_changed_lines(hunks: list[Hunk]) -> int:
    return sum(1 for h in hunks for l in h.lines if l[0] in "+-")


def is_pure_addition(hunks: list[Hunk]) -> bool:
    """True when no hunk carries context or deletions; such a patch has no
    anchor in the target and is rejected on existing files."""
    return all(l[0] == "+" for h in hunks for l in h.lines)


def is_creation_patch(hunks: list[Hunk]) -> bool:
    return all(h.old_count == 0 and h.old_start in (0, 1) for h in hunks)


def apply_hunks(original: list[str], hunks: list[Hunk]) -> list[str]:
    r"""Apply hunks at their stated positions to a file's lines, each with its
    ending (`split_lines`). Raises HunkMismatch when the expected old lines
    differ from the file; nothing is partially applied.

    A context line keeps the file's bytes; an added line takes the file's
    newline ("\r\n" when its first line ends so, else "\n"), or none when
    the diff marks it "\ No newline at end of file".
    """
    newline = "\r\n" if original and original[0].endswith("\r\n") else "\n"
    out: list[str] = []
    cursor = 0  # index into original
    for hunk in hunks:
        # old_start is 1-based; an old_count of 0 inserts after old_start
        start = hunk.old_start - 1 if hunk.old_count > 0 else hunk.old_start
        if start < cursor or start > len(original):
            raise HunkMismatch(
                f"hunk at -{hunk.old_start} overlaps a previous hunk or exceeds the file"
            )
        expected = hunk.old_lines()
        span = original[start:start + len(expected)]
        actual = [_text(l) for l in span]
        if actual != expected:
            raise HunkMismatch(
                f"context mismatch at line {hunk.old_start}: expected {expected!r}, found {actual!r}"
            )
        out.extend(original[cursor:start])
        old = iter(span)
        for line in hunk.lines:
            if line[0] == "-":
                next(old)
                continue
            text = next(old) if line[0] == " " else _text(line[1:]) + newline
            out.append(text if line.endswith("\n") else _text(text))
        cursor = start + len(expected)
    out.extend(original[cursor:])
    # only the last line may lack an ending: a line the diff left without one
    # (the file's old last line, or a misplaced marker) that is now followed
    # by another line gets the file's newline
    for i in range(len(out) - 1):
        if not out[i].endswith("\n"):
            out[i] += newline
    return out
