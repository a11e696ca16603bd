"""Every example must run cleanly (they are part of the public surface)."""

import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path):
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), "examples must print something"


def test_examples_exist():
    assert len(EXAMPLES) >= 4
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names


def test_readme_framework_recipe_is_the_example():
    # the README's "Writing your own analysis" snippet must be a verbatim
    # run of lines of the example the suite executes, so it cannot rot
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Writing your own analysis", 1)[1]
    section = section.split("\n## ", 1)[0]
    (snippet,) = re.findall(r"```python\n(.*?)```", section, re.S)
    quoted = snippet.rstrip("\n").split("\n")
    example = (ROOT / "examples" / "parity_client.py").read_text().split("\n")
    assert len(quoted) > 1
    assert any(
        example[start:start + len(quoted)] == quoted
        for start in range(len(example))
    ), "README snippet is not a contiguous run of examples/parity_client.py"
