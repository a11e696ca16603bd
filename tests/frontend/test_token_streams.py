"""The lexer's output, pinned.

Each program's token stream — kind, value, start and end offset, start
and end line:column — is hashed and compared with a recorded digest, so
a lexer change that moves any token, value or location fails here. The
property tests check the line table against the plain definition: a
location's line is one plus the number of newlines before its offset.
"""

import glob
import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.lexer import tokenize
from repro.frontend.source import LineTable
from repro.workloads import load

STREAM_DIGESTS = {
    "adm": "aaf12168910c06b1a02a61e2b48c772e3e4e5472780bdaf60be3d04ebf356581",
    "doduc": "2005aad229e9d2ff16d5c533d0c18e10fadfbb280200335cc52aa20f92cf81ca",
    "fpppp": "1a7f0fdfc87aec663be96aa60cbac3979cd4df0e599899dab81db391409a9149",
    "linpackd": "8612a77f07d0568d8d5ccf777dd8b637b5b9d246ffd72fd92952b75c0bfac3d4",
    "matrix300": "97e97a35c4298970ffd711fc61f82a33f88108f92325a0770bd1d958d3fcbc02",
    "mdg": "aee29c8543edb391710a11b1f88905523b248f9422a9c5ced191a089ee459b0c",
    "ocean": "491715b0533fe897ce79302d9f6d0f89392efe7393f13e2bb43e0b68e1edd008",
    "qcd": "28bbff9a9dcc0a73dff70002e36422cf7f13b2d7712de944ee5ef742eef1ee96",
    "simple": "21ab298b9143eda011e2e7a50a836248d61883f14bc6bdc68fa03bead4c35295",
    "snasa7": "7606e0826c16609d31570523494f5812117d38899ea37d604082d3c10377e838",
    "spec77": "135208307f56437f026b9d80c0cdbfcee76fba31ab6db3efeb7e2c693a69196a",
    "trfd": "af68981345369aa0c8c9693dc6c9c639723490809c31c1728b23f987b32cd8ff",
    "large_chain": "91a9420947be253120667dd99029cab3161a389462a498ff5d98fd3106affca7",
    "large_fanout": "302b83e99105981ec5b7cbaa17d9eeebd7580aeaae39c4f4031910882741691d",
    "large_scc": "cafba2e72dc241a92c7aae7dd249b75628a8c6efec4d763a5e89821c2d35ac98",
    "clones.f": "2c912318402b82ccd437b0f5dcc673abcc30d3e7d60554272c547b4c75b37ddb",
    "lint_findings.f": "e12aedeb9c6dc26960f6dc77cc63b8accacb5c7968c76d958a432eaeac771137",
    "pipeline.f": "a5520312c6c58c357567fbc2dd0aa8a3f0b49862b1ab7da3696a694a81a2a90a",
}


def stream_digest(source: str) -> str:
    rows = []
    for token in tokenize(source):
        start, end = token.span.start, token.span.end
        rows.append((
            token.kind.name, token.value, start.offset, end.offset,
            start.line, start.column, end.line, end.column,
        ))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_every_example_is_pinned():
    examples = {os.path.basename(path) for path in glob.glob("examples/*.f")}
    assert examples <= set(STREAM_DIGESTS)


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_token_stream_unchanged(name):
    if name.endswith(".f"):
        with open(os.path.join("examples", name)) as handle:
            source = handle.read()
    else:
        source = load(name).source
    assert stream_digest(source) == STREAM_DIGESTS[name]


def assert_counts_newlines(source, location):
    before = source[: location.offset]
    assert location.line == 1 + before.count("\n")
    assert location.column == location.offset - before.rfind("\n")


@given(
    source=st.text(alphabet="ab1 =\t\r\n&!'", max_size=80),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_line_table_counts_newlines(source, data):
    offset = data.draw(st.integers(0, len(source)))
    location = LineTable(source).location(offset)
    assert location.offset == offset
    assert_counts_newlines(source, location)


@st.composite
def layouts(draw):
    """Statements over blanks, tabs and carriage returns, some continued
    with ``&`` and some carrying a comment."""
    lines = []
    for text, continued, comment in draw(st.lists(st.tuples(
        st.text(alphabet="ab1 =+\t\r", max_size=12), st.booleans(), st.booleans(),
    ), max_size=8)):
        lines.append(text + (" &" if continued else "") + (" ! c" if comment else ""))
    return "\n".join(lines) + "\n"


@given(source=layouts())
@settings(max_examples=200, deadline=None)
def test_token_locations_count_newlines(source):
    for token in tokenize(source):
        assert_counts_newlines(source, token.span.start)
        assert_counts_newlines(source, token.span.end)
