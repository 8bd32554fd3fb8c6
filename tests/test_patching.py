"""Unified diff parsing and strict application."""

import pytest

from skillet.errors import HunkMismatch
from skillet.patching import (
    PatchFormatError,
    apply_hunks,
    count_changed_lines,
    is_creation_patch,
    is_pure_addition,
    parse_unified_diff,
    split_lines,
)

SIMPLE = """--- a/calc.py
+++ b/calc.py
@@ -1,2 +1,2 @@
 def add(a, b):
-    return a - b
+    return a + b
"""

MULTI = """@@ -1,3 +1,3 @@
 line1
-line2
+line2x
 line3
@@ -6,2 +6,3 @@
 line6
+line6b
 line7
"""

CREATE = """@@ -0,0 +1,2 @@
+first
+second
"""

APPEND_ONLY = """@@ -3,0 +4,2 @@
+tail one
+tail two
"""


def apply(original: str, body: str) -> str:
    """Split, patch and join the way the patch executor does."""
    return "".join(apply_hunks(split_lines(original), parse_unified_diff(body)))


class TestParse:
    def test_headers_skipped_and_counts_read(self):
        hunks = parse_unified_diff(SIMPLE)
        assert len(hunks) == 1
        assert (hunks[0].old_start, hunks[0].old_count) == (1, 2)

    def test_no_hunk_header(self):
        with pytest.raises(PatchFormatError, match="@@"):
            parse_unified_diff("just some text\nwith no markers\n")

    def test_count_mismatch_rejected(self):
        with pytest.raises(PatchFormatError, match="counts"):
            parse_unified_diff("@@ -1,5 +1,1 @@\n-one line\n+new\n")

    def test_unexpected_line_tag(self):
        with pytest.raises(PatchFormatError, match="unexpected"):
            parse_unified_diff("@@ -1,1 +1,1 @@\n*what\n")

    def test_changed_line_count(self):
        assert count_changed_lines(parse_unified_diff(MULTI)) == 3

    def test_predicates(self):
        assert is_pure_addition(parse_unified_diff(APPEND_ONLY))
        assert not is_pure_addition(parse_unified_diff(SIMPLE))
        assert is_creation_patch(parse_unified_diff(CREATE))
        assert not is_creation_patch(parse_unified_diff(SIMPLE))

    def test_no_newline_marker_tolerated(self):
        hunks = parse_unified_diff(
            "@@ -1,1 +1,1 @@\n-old\n\\ No newline at end of file\n+new\n"
        )
        assert hunks[0].old_lines() == ["old"]


class TestApply:
    def test_single_hunk(self):
        out = apply("def add(a, b):\n    return a - b\n", SIMPLE)
        assert out == "def add(a, b):\n    return a + b\n"

    def test_multi_hunk_with_gap(self):
        original = "\n".join(f"line{i}" for i in range(1, 8)) + "\n"
        out = apply(original, MULTI)
        assert "line2x" in out
        assert "line6b" in out
        assert out.splitlines()[4] == "line5"

    def test_context_mismatch_is_all_or_nothing(self):
        original = "completely different\ncontent here\n"
        with pytest.raises(HunkMismatch, match="context mismatch"):
            apply(original, SIMPLE)

    def test_creation_from_empty(self):
        assert apply("", CREATE) == "first\nsecond\n"

    def test_insertion_with_zero_old_count(self):
        original = "a\nb\nc\n"
        body = "@@ -1,0 +2,1 @@\n+inserted\n"
        assert apply(original, body) == "a\ninserted\nb\nc\n"

    def test_overlapping_hunks_rejected(self):
        body = "@@ -1,1 +1,1 @@\n-a\n+x\n@@ -1,1 +2,1 @@\n-a\n+y\n"
        with pytest.raises(HunkMismatch, match="overlaps"):
            apply_hunks(["a", "b"], parse_unified_diff(body))

    def test_hunk_past_end_of_file(self):
        body = "@@ -10,1 +10,1 @@\n-x\n+y\n"
        with pytest.raises(HunkMismatch):
            apply_hunks(["only"], parse_unified_diff(body))

    def test_blank_context_lines(self):
        original = "a\n\nb\n"
        body = "@@ -1,3 +1,3 @@\n a\n\n-b\n+c\n"
        assert apply(original, body) == "a\n\nc\n"


class TestByteExact:
    def test_split_lines_keeps_endings_and_splits_on_newline_only(self):
        assert split_lines("a\r\nb\fc\x1cd\u2028e\nf") == ["a\r\n", "b\fc\x1cd\u2028e\n", "f"]
        assert split_lines("a\n\n") == ["a\n", "\n"]
        assert split_lines("") == []

    def test_crlf_file_keeps_its_endings_and_missing_final_newline(self):
        original = "a = 1\r\nb = 2\r\nc = 3"
        body = "@@ -2,1 +2,1 @@\n-b = 2\n+b = 3\n"
        assert apply(original, body) == "a = 1\r\nb = 3\r\nc = 3"

    def test_crlf_diff_applies_to_crlf_file(self):
        body = "@@ -1,2 +1,2 @@\r\n a\r\n-b\r\n+B\r\n"
        assert apply("a\r\nb\r\n", body) == "a\r\nB\r\n"

    def test_untouched_last_line_keeps_missing_newline(self):
        assert apply("x\ny\nz", "@@ -1,1 +1,1 @@\n-x\n+X\n") == "X\ny\nz"

    def test_no_newline_marker_on_added_line_is_honoured(self):
        body = ("@@ -1,2 +1,2 @@\n a\n-b\n\\ No newline at end of file\n"
                "+c\n\\ No newline at end of file\n")
        assert apply("a\nb", body) == "a\nc"

    def test_added_last_line_without_marker_gets_a_newline(self):
        body = "@@ -1,2 +1,2 @@\n a\n-b\n\\ No newline at end of file\n+c\n"
        assert apply("a\nb", body) == "a\nc\n"

    def test_line_added_after_an_unterminated_last_line_is_separated(self):
        assert apply("a\nb", "@@ -2,1 +2,2 @@\n b\n+c\n") == "a\nb\nc\n"

    def test_form_feed_and_separator_characters_stay_inside_a_line(self):
        original = "x = 1\f# page\ny = '\x1c'\n"
        body = "@@ -1,2 +1,2 @@\n x = 1\f# page\n-y = '\x1c'\n+y = '\x1d'\n"
        assert apply(original, body) == "x = 1\f# page\ny = '\x1d'\n"
