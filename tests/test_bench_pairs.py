"""tools/bench_pairs.py: the rule for claiming a gain, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = [{"name": "ops_per_s", "unit": "1/s", "better": "higher"},
            {"name": "wall_s", "unit": "s", "better": "lower"}]


def _runs(values: list, failed: int = 0) -> list:
    return [{"metrics": {"ops_per_s": {"value": v},
                         "wall_s": {"value": 1.0 / v}},
             "failed": failed} for v in values]


def _gains(parent: list, change: list, failed: tuple = (0, 0)) -> dict:
    rows = bench_pairs.summary(DECLARED, {"parent": _runs(parent, failed[0]),
                                          "change": _runs(change, failed[1])})
    return {name: (wins, gain) for name, _, _, _, wins, _, gain in rows}


PARENT = [600, 610, 620, 630, 640, 650, 660, 670, 680, 690]


def test_nine_wins_and_a_gap_past_the_spread_hold():
    # the parent's quartiles are 622.5 and 667.5; one pair is a tie
    change = [v + 100 for v in PARENT[:9]] + [690]
    assert _gains(PARENT, change) == {"ops_per_s": (9, True),
                                      "wall_s": (9, True)}


def test_eight_wins_do_not_hold():
    change = [v + 100 for v in PARENT[:8]] + [650, 600]
    assert _gains(PARENT, change)["ops_per_s"] == (8, False)


def test_a_gap_inside_the_spread_does_not_hold():
    change = [v + 10 for v in PARENT]
    assert _gains(PARENT, change)["ops_per_s"] == (10, False)


def test_more_failed_operations_are_no_gain():
    change = [v + 100 for v in PARENT]
    assert _gains(PARENT, change, failed=(0, 1)) == {"ops_per_s": (10, False),
                                                      "wall_s": (10, False)}
    assert _gains(PARENT, change, failed=(1, 1))["ops_per_s"] == (10, True)


def test_a_loss_is_no_gain():
    change = [v - 100 for v in PARENT]
    assert _gains(PARENT, change) == {"ops_per_s": (0, False),
                                      "wall_s": (0, False)}


def test_quartiles_of_two_runs():
    assert bench_pairs.quartiles([1.0, 3.0]) == pytest.approx(
        (1.5, 2.0, 2.5))
