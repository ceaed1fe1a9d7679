"""The README's code blocks run as it says they do."""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from thermologic.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def test_library_example_prints_ln_2_and_true():
    (code,) = blocks("python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code, {})
    work, reconciled = printed.getvalue().split()
    assert math.isclose(float(work), math.log(2.0), rel_tol=1e-12)
    assert reconciled == "True"


def json_block(key):
    """The README's one JSON block that holds ``key`` at its top level."""
    (block,) = (b for b in blocks("json") if key in json.loads(b))
    return block


@pytest.mark.parametrize(
    "command, key, output",
    [(["cost"], "operation", "report.json"), (["cycle", "uncertain"], "branches", "uncertain.json")],
    ids=["scenario", "cycle-uncertain"],
)
def test_json_block_runs(tmp_path, capsys, command, key, output):
    path = tmp_path / "in.json"
    path.write_text(json_block(key))
    out = tmp_path / "out"
    assert main([*command, str(path), "--out", str(out)]) == 0
    assert (out / output).exists()
