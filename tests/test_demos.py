"""The demos run end to end, in process, and print their key findings."""

import contextlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name, expected", [
    ("protection_tour", "brute force route agrees: True"),
    ("budget_frontier", "1.00   4.577e-05  True"),
    ("metric_routes", "complexes equal: True"),
])
def test_demo_runs(name, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, f"{name}.py"), run_name="__main__")
    assert expected in out.getvalue()
