"""Smoke test: every demo script runs to completion and prints its walkthrough."""

import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    with np.printoptions():  # demos set their own print options
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
