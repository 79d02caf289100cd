"""The verdict rule of ``scripts/bench_pairs.py``, on made-up runs; no
benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def judge(parent, change, better="higher", bound=0.25):
    return bench_pairs.verdict(bench_pairs.summarize(parent, change, better), better, bound)


@pytest.mark.parametrize(
    "parent, change, better, bound, want",
    [
        # wins 10 of 10, median gap 30 > parent IQR
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [130] * 10, "higher", 0.25, "gain"),
        # lower is better: the same runs negated in sense
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100], [70] * 10, "lower", 0.25, "gain"),
        # wins 4 of 4 by far: fewer than ten pairs claim no gain
        ([100, 101, 99, 100], [130] * 4, "higher", 0.25, "no worse"),
        # wins 8 of 10: not a gain, but no worse
        ([100] * 10, [130] * 8 + [90] * 2, "higher", 0.25, "no worse"),
        # wins every pair, but the gap is inside the parent's IQR
        ([80, 120, 80, 120, 80, 120, 80, 120, 80, 120], [81, 121] * 5, "higher", 0.5, "no worse"),
        # median 30 % below the parent's, bound 25 %
        ([100, 101, 99, 100], [70, 71, 69, 70], "higher", 0.25, "regressed"),
        # lower is better: median 10 % above, bound 5 %
        ([42.0, 42.1, 41.9, 42.0], [46.2, 46.3, 46.1, 46.2], "lower", 0.05, "regressed"),
        # 3 % worse, bound 5 %, tight runs
        ([42.0, 42.1, 41.9, 42.0], [43.2, 43.3, 43.1, 43.2], "lower", 0.05, "no worse"),
        # the change's runs spread wider than the bound
        ([100, 101, 99, 100], [60, 140, 70, 130], "higher", 0.25, "unresolved"),
        # wide spread, every change run beats every parent run, gap < IQR
        ([50, 150, 60, 140], [151, 155, 152, 153], "higher", 0.25, "no worse"),
    ],
)
def test_verdict(parent, change, better, bound, want):
    assert judge(parent, change, better, bound) == want


def test_summary_records_each_pairs_ratio():
    """Each pair's change / parent ratio is kept in pair order, so a verdict's
    per-pair spread can be read back from the file."""
    got = bench_pairs.summarize([100, 200, 50], [150, 100, 50], "higher")
    assert got["pair_ratios"] == [1.5, 0.5, 1.0]
    assert got["change_better_in_pairs"] == 1
    # the ratio is change / parent whichever way is better
    assert bench_pairs.summarize([40.0, 50.0], [42.0, 45.0], "lower")["pair_ratios"] == [1.05, 0.9]


def test_pair_summary_of_paired_times():
    """The in-process ratio is parent / change per round, above 1 when the
    change is faster; a tie is not a win."""
    got = bench_pairs.pair_summary([2.0, 3.0, 1.0, 4.0], [1.0, 3.0, 2.0, 2.0])
    assert got == {"median_ratio": 1.5, "change_wins": 2}
    assert bench_pairs.pair_summary([1.0], [1.25])["median_ratio"] == 0.8


def test_load_package_imports_a_tree_under_another_name():
    """A tree's package imported under a second name keeps its own modules,
    apart from the ones imported as ``mtpso``."""
    import mtpso

    copy = bench_pairs.load_package(Path(mtpso.__file__).resolve().parent.parent, "mtpso_second_copy")
    assert copy.optimizer.__name__ == "mtpso_second_copy.optimizer"
    assert copy.optimizer.run_batch is not mtpso.optimizer.run_batch
    assert copy.core.RunConfig is not mtpso.core.RunConfig
