"""The one source rewriter: :func:`repro.frontend.source.splice`."""

import pytest

from repro.frontend.source import SourceSpan, splice

TEXT = "call s(x, y)\n"


def span_of(word: str, text: str = TEXT) -> SourceSpan:
    start = text.index(word)
    return SourceSpan(start, start + len(word))


class TestSplice:
    def test_no_edits_is_the_text(self):
        assert splice(TEXT, []) == TEXT

    def test_edits_apply_in_span_order_whatever_the_input_order(self):
        edits = [(span_of("y"), "2"), (span_of("s"), "s_c1"), (span_of("x"), "1")]
        assert splice(TEXT, edits) == "call s_c1(1, 2)\n"

    def test_adjacent_spans_do_not_overlap(self):
        assert splice("ab", [(SourceSpan(1, 2), "B"), (SourceSpan(0, 1), "A")]) == "AB"

    def test_region_cuts_out_the_covered_text(self):
        region = span_of("s(x, y)")
        assert splice(TEXT, [(span_of("x"), "7")], region) == "s(7, y)"

    @pytest.mark.parametrize(
        "edits",
        [
            [(SourceSpan(5, 8), "x"), (SourceSpan(7, 9), "y")],
            [(SourceSpan(5, 8), "x"), (SourceSpan(5, 8), "y")],
        ],
        ids=["overlapping", "repeated"],
    )
    def test_overlapping_spans_are_refused(self, edits):
        with pytest.raises(ValueError, match="overlaps"):
            splice(TEXT, edits)

    def test_span_outside_the_region_is_refused(self):
        with pytest.raises(ValueError):
            splice(TEXT, [(span_of("call"), "x")], span_of("s(x, y)"))
