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


BENCH_FAILURES = """..F...F.
=================================== FAILURES ===================================
E       AttributeError: type object 'Field' has no attribute 'from_physical'; 1 failed lookup
=========================== short test summary info ============================
FAILED bench/test_bench.py::test_install - AttributeError: type object 'Field'
"""


@pytest.mark.parametrize("stdout, summary", [
    (BENCH_FAILURES + "2 failed, 21 passed in 5.43s\n", "2 failed, 21 passed in 5.43s"),
    ("....\n[acceptance] criterion 1 skew-symmetry: PASS\n"
     "======================== 534 passed in 64.75s (0:01:04) ========================\n",
     "534 passed in 64.75s (0:01:04)"),
    ("ERROR: file or directory not found: bench\n\nno tests ran in 0.01s\n", None),
], ids=["bench-q", "framed", "no-count"])
def test_pytest_summary_is_the_last_count_line_without_its_frame(stdout, summary):
    assert bench_pairs.pytest_summary(stdout) == summary


@pytest.mark.parametrize("stdout, summary", [
    ("seed_0/criterion.json: byte-equal\nseed_3/mms2d-n32.txt: byte-equal\n0 of 50 files differ\n",
     "0 of 50 files differ"),
    ("seed_0/forced3d-n32/summary.json: differs\n  eps_avg: max rel 0.00794, max abs 0.001 (1 of 1 differ)\n"
     "1 of 50 files differ; largest relative difference 0.00794, in seed_0/forced3d-n32/summary.json at eps_avg\n",
     "1 of 50 files differ; largest relative difference 0.00794, in seed_0/forced3d-n32/summary.json at eps_avg"),
    ("Traceback (most recent call last):\nFileNotFoundError: out\n", None),
    ("", None),
], ids=["equal", "one-differs", "crashed", "empty"])
def test_compare_summary_is_the_count_line_or_none(stdout, summary):
    assert bench_pairs.compare_summary(stdout) == summary
