"""Unit tests of the benchmark's estimators: the speed scaling and the
Harrell-Davis percentile.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import speed  # noqa: E402


def test_percentile_of_equal_values_is_that_value():
    assert run.percentile([0.25] * 40, 50) == pytest.approx(0.25)
    assert run.percentile([0.25] * 40, 75) == pytest.approx(0.25)


def test_percentile_follows_the_order_statistics():
    values = [float(v) for v in range(1, 41)]
    assert run.percentile(values, 50) == pytest.approx(20.5, abs=1e-3)
    assert 29.0 < run.percentile(values, 75) < 32.0
    assert run.percentile(reversed(values), 75) == run.percentile(values, 75)


def test_scale_divides_by_the_bracketing_slowdowns():
    slowdowns = iter([1.0, 2.0, 4.0])
    ref = speed.Speed(lambda: next(slowdowns), interval_s=0.0)
    ref.times = [10.0]  # place the samples by hand: 1.0 at t=10
    ref.sample()
    ref.sample()
    ref.times[1:] = [20.0, 30.0]  # 2.0 at t=20, 4.0 at t=30
    assert ref.scale(3.0, 12.0, 14.0) == pytest.approx(3.0 / 1.5)
    assert ref.scale(3.0, 24.0, 26.0) == pytest.approx(3.0 / 3.0)
    assert ref.scale(3.0, 40.0, 41.0) == pytest.approx(3.0 / 4.0)
    assert ref.factor_between(15.0, 35.0) == pytest.approx(1.0 / 3.0)


def test_kernel_task_reports_a_positive_slowdown():
    for weights in ((1.0, 1.0, 1.0), (1.0, 0.0, 0.0)):
        assert speed.kernel_task(weights)() > 0.0
