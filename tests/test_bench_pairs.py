"""`tools/bench_pairs.py`'s rule for a claimed gain: at least 9 in 10 pairs won, and the medians apart by more
than the parent's interquartile range, in the metric's better direction."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [47.50, 47.45, 47.59, 47.52, 47.48, 47.55, 47.47, 47.58, 47.51, 47.49]  # IQR 0.06, median 47.505


@pytest.mark.parametrize("change, wins, met", [
    ([45.41, 46.98, 45.90, 46.20, 45.60, 46.10, 45.80, 46.50, 45.70, 46.00], 10, True),
    ([45.41, 46.98, 45.90, 46.20, 45.60, 46.10, 45.80, 46.50, 45.70, 47.60], 9, True),
    ([45.41, 46.98, 45.90, 46.20, 45.60, 46.10, 45.80, 46.50, 47.60, 47.60], 8, False),
    # each 0.05 below its pair: every pair won, but the medians lie closer than the IQR
    ([47.45, 47.40, 47.54, 47.47, 47.43, 47.50, 47.42, 47.53, 47.46, 47.44], 10, False),
    (PARENT, 0, False),
], ids=["all-won", "nine-won", "eight-won", "won-by-less-than-the-iqr", "ties"])
def test_claim_met_needs_nine_in_ten_wins_and_a_median_gain_past_the_parents_iqr(change, wins, met):
    for better, sign in (("lower", 1), ("higher", -1)):  # "higher" sees both sides negated
        out = bench_pairs.summarize({"parent": [sign * v for v in PARENT], "change": [sign * v for v in change]},
                                    better)
        assert (out["change_wins"], out["claim_met"]) == (wins, met)
        assert out["parent_iqr"] == pytest.approx(0.06)
