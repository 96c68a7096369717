"""The README's examples run: its Quick tour's python block executes, and its
example config loads through cli.Experiment, so neither can drift from the
code."""
import json
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from zrp import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


def test_the_quick_tour_runs():
    (tour,) = _blocks("python")
    buf = StringIO()
    with redirect_stdout(buf):
        exec(compile(tour, "README.md", "exec"), {})
    assert buf.getvalue().strip()


def test_the_example_config_loads():
    (example,) = _blocks("json")
    cli.Experiment(json.loads(example))
