import warnings
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpso.adaptation import (
    EmptyWindowError,
    MemoryWindow,
    choose_sources,
    focus_flags,
    roulette_select_many,
    update_probabilities,
)


def exact_probabilities(ns_sums, nf_sums, bp="0.001", eps="0.001"):
    """Long-form arithmetic oracle with exact rationals."""
    bp, eps = Fraction(bp), Fraction(eps)
    sr = [Fraction(int(a)) / (Fraction(int(a)) + Fraction(int(b)) + eps) + bp
          for a, b in zip(ns_sums, nf_sums)]
    total = sum(sr)
    return np.array([float(s / total) for s in sr])


def one_row(ns_col, nf_col):
    """A single row's column as a one-row (1, k) stack."""
    return np.asarray(ns_col)[None], np.asarray(nf_col)[None]


def window_with_sums(ns_sums, nf_sums, lp=10):
    """A one-row window with one committed column carrying the requested
    totals."""
    mem = MemoryWindow([lp], len(ns_sums))
    mem.commit_generation(*one_row(ns_sums, nf_sums))
    return mem


def row_probabilities(ns_sums, nf_sums, bp=0.001, eps=0.001):
    """The probabilities of a one-row window's only row."""
    return update_probabilities(window_with_sums(ns_sums, nf_sums), bp, eps)[0]


class NaiveWindow:
    """Oracle: the last ``lp`` committed (ns, nf) columns in a deque."""

    def __init__(self, lp):
        self.columns = deque(maxlen=lp)

    def commit(self, ns_col, nf_col):
        self.columns.append((np.asarray(ns_col), np.asarray(nf_col)))

    def sums(self):
        return tuple(np.sum([col[i] for col in self.columns], axis=0) for i in (0, 1))


def assert_window_sums(mem, naive):
    """Row 0 of ``mem`` holds the oracle's sums."""
    ns, nf = naive.sums()
    assert np.array_equal(mem.success_sums()[0], ns)
    assert np.array_equal(mem.failure_sums()[0], nf)


class TestMemoryWindow:
    def test_first_record_lands_in_column(self):
        mem, naive = MemoryWindow([5], 3), NaiveWindow(5)
        mem.commit_generation(*one_row([1, 0, 0], [0, 0, 0]))
        naive.commit([1, 0, 0], [0, 0, 0])
        assert_window_sums(mem, naive)
        assert np.array_equal(mem.success_sums(), [[1, 0, 0]])
        assert np.array_equal(mem.failure_sums(), [[0, 0, 0]])

    def test_column_conserves_population(self):
        mem, naive = MemoryWindow([5], 2), NaiveWindow(5)
        rng = np.random.default_rng(0)
        sources, improved = rng.integers(2, size=50), rng.integers(2, size=50).astype(bool)
        ns = np.bincount(sources[improved], minlength=2)
        nf = np.bincount(sources[~improved], minlength=2)
        mem.commit_generation(*one_row(ns, nf))
        naive.commit(ns, nf)
        assert_window_sums(mem, naive)
        assert mem.success_sums().sum() + mem.failure_sums().sum() == 50

    def test_ring_eviction_matches_naive_oracle(self):
        lp, k = 4, 3
        mem, naive = MemoryWindow([lp], k), NaiveWindow(lp)
        rng = np.random.default_rng(42)
        for gen in range(25):
            ns_col = rng.integers(0, 5, k)
            nf_col = rng.integers(0, 5, k)
            mem.commit_generation(*one_row(ns_col, nf_col))
            naive.commit(ns_col, nf_col)
            assert mem.filled.tolist() == [min(gen + 1, lp)]
            assert_window_sums(mem, naive)

    def test_columns_ordered_oldest_to_newest(self):
        """A full window drops its oldest column: 1 goes, 2, 3 and 4 stay."""
        mem, naive = MemoryWindow([3], 1), NaiveWindow(3)
        for value in (1, 2, 3, 4):
            mem.commit_generation(*one_row([value], [0]))
            naive.commit([value], [0])
        assert_window_sums(mem, naive)
        assert mem.success_sums().tolist() == [[2 + 3 + 4]]

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_per_row_lengths_match_naive_oracle(self, lps, seed):
        rng = np.random.default_rng(seed)
        rows, k = len(lps), 3
        mem = MemoryWindow(np.array(lps), k)
        naive = []
        for gen in range(15):
            ns_col, nf_col = rng.integers(0, 5, (2, rows, k))
            mem.commit_generation(ns_col, nf_col)
            naive.append((ns_col, nf_col))
            for r, lp in enumerate(lps):
                kept = naive[-lp:]
                assert mem.filled[r] == min(gen + 1, lp)
                assert np.array_equal(mem.success_sums()[r], np.sum([c[0][r] for c in kept], axis=0))
                assert np.array_equal(mem.failure_sums()[r], np.sum([c[1][r] for c in kept], axis=0))

    def test_record_out_of_range(self):
        """A count for a source the window does not have is rejected, as is
        a column of the wrong row count, and the window stays empty."""
        mem = MemoryWindow([3, 3], 2)
        with pytest.raises(ValueError, match="shape"):
            mem.commit_generation([[0, 0, 1], [0, 0, 0]], np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="shape"):
            mem.commit_generation([[0, 1]], [[0, 0]])
        with pytest.raises(ValueError, match="shape"):
            mem.commit_generation([0, 1], [0, 0])  # one row's column is not broadcast
        assert mem.filled.tolist() == [0, 0]
        mem.commit_generation([[0, 1], [1, 0]], [[0, 0], [0, 0]])  # the right shape is accepted
        assert mem.success_sums().tolist() == [[0, 1], [1, 0]]

    def test_bad_sizes(self):
        """A window length below 1 is rejected, on any row; a length of 1
        and a source count of 1 are accepted."""
        for lp in ([0], [3, 0], [-1, 2]):
            with pytest.raises(ValueError, match="window length"):
                MemoryWindow(lp, 2)
        assert MemoryWindow([1], 1).shape == (1, 1)


class TestUpdateProbabilities:
    def test_uniform_when_no_outcomes(self):
        p = row_probabilities([0, 0, 0, 0], [0, 0, 0, 0])
        assert np.allclose(p, 0.25, rtol=1e-12)

    def test_worked_two_source_example(self):
        p = row_probabilities([3, 1], [1, 3])
        expected = exact_probabilities([3, 1], [1, 3])
        assert np.allclose(p, expected, rtol=1e-12)
        assert p[0] == pytest.approx(0.74950, abs=5e-6)
        assert p[1] == pytest.approx(0.25050, abs=5e-6)

    def test_floor_keeps_dead_source_selectable(self):
        p = row_probabilities([5, 0], [0, 5])
        expected = exact_probabilities([5, 0], [0, 5])
        assert np.allclose(p, expected, rtol=1e-12)
        assert p[0] == pytest.approx(0.99900, abs=5e-6)
        assert p[1] == pytest.approx(0.00100, abs=5e-6)
        assert p[1] > 0

    def test_random_windows_match_exact_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            ns = rng.integers(0, 40, k)
            nf = rng.integers(0, 40, k)
            p = row_probabilities(ns, nf)
            expected = exact_probabilities(ns, nf)
            assert np.allclose(p, expected, rtol=1e-12, atol=0)

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindowError):
            update_probabilities(MemoryWindow([5], 2), bp=0.001, eps=0.001)

    def test_bad_parameters_rejected(self):
        mem = window_with_sums([1], [1])
        with pytest.raises(ValueError):
            update_probabilities(mem, bp=-1.0, eps=0.001)
        with pytest.raises(ValueError):
            update_probabilities(mem, bp=0.0, eps=0.0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 100)), min_size=2, max_size=6
        ),
        st.floats(1e-6, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_simplex_and_positivity(self, counts, bp):
        ns = [c[0] for c in counts]
        nf = [c[1] for c in counts]
        p = row_probabilities(ns, nf, bp=bp)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0)

    def test_bp_zero_row_without_success_is_one_hot_on_own_task(self):
        # rows 0 and 2 have no success in the window: with bp = 0 every rate
        # is 0, which used to give a 0/0 NaN row and a RuntimeWarning
        mem = MemoryWindow([3, 3, 3], 3)
        mem.commit_generation([[0, 0, 0], [2, 0, 1], [0, 0, 0]], [[4, 4, 2], [1, 3, 4], [0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = update_probabilities(mem, bp=0.0, eps=0.001)
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.array_equal(p[0], [1.0, 0.0, 0.0])
        assert np.array_equal(p[2], [0.0, 0.0, 1.0])
        # a stack of two cells: row t·2 + c belongs to task t
        stacked = MemoryWindow([3] * 4, 2)
        stacked.commit_generation(np.zeros((4, 2), dtype=int), np.ones((4, 2), dtype=int))
        assert np.array_equal(update_probabilities(stacked, 0.0, 0.001), [[1, 0], [1, 0], [0, 1], [0, 1]])

    def test_per_row_floor(self):
        mem = MemoryWindow([3, 3], 2)
        mem.commit_generation([[3, 1], [3, 1]], [[1, 3], [1, 3]])
        p = update_probabilities(mem, np.array([0.001, 0.1]), 0.001)
        assert np.array_equal(p[0], row_probabilities([3, 1], [1, 3], bp=0.001))
        assert np.array_equal(p[1], row_probabilities([3, 1], [1, 3], bp=0.1))

    def test_more_successes_raise_probability(self):
        base = row_probabilities([2, 2], [5, 5])
        more = row_probabilities([4, 2], [5, 5])
        assert more[0] > base[0]


def pick_one(p, u):
    """One roulette draw: ``roulette_select_many`` on a one-row batch."""
    return int(roulette_select_many(np.array([p], dtype=float), np.array([[u]]))[0, 0])


class TestRoulette:
    def test_certain_bin(self):
        assert pick_one([1.0, 0.0], 0.3) == 0

    def test_cumulative_boundaries(self):
        assert pick_one([0.5, 0.5], 0.6) == 1
        assert pick_one([0.25, 0.25, 0.5], 0.4) == 1
        assert pick_one([0.25, 0.25, 0.5], 0.9) == 2

    def test_exact_edge_goes_right(self):
        assert pick_one([0.5, 0.5], 0.5) == 1

    def test_float_tail_guard(self):
        assert pick_one([0.3, 0.3, 0.4], 0.999999999999) == 2
        assert pick_one([0.1] * 10, 0.9999999999999999) == 9  # the cumulative sum ends below 1

    def test_vectorized_matches_scalar(self):
        """One call over many draws equals one call per draw."""
        rng = np.random.default_rng(1)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        us = rng.random(500)
        many = roulette_select_many(p[None, :], us[None, :])[0]
        singles = np.array([pick_one(p, u) for u in us])
        assert np.array_equal(many, singles)

    def test_empirical_frequencies(self):
        p = np.array([0.2, 0.3, 0.5])
        n = 100_000
        rng = np.random.default_rng(99)
        picks = roulette_select_many(p[None], rng.random((1, n)))[0]
        freq = np.bincount(picks, minlength=3) / n
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3 * se)


class TestFocus:
    def test_all_zero_success_activates(self):
        mem = MemoryWindow([3], 2)
        for _ in range(3):
            mem.commit_generation(*one_row([0, 0], [5, 5]))
        assert focus_flags(mem).tolist() == [True]

    def test_any_success_deactivates(self):
        mem = MemoryWindow([3], 2)
        mem.commit_generation(*one_row([0, 1], [5, 4]))
        assert focus_flags(mem).tolist() == [False]

    def test_empty_window_not_focused(self):
        assert focus_flags(MemoryWindow([3], 2)).tolist() == [False]

    def test_step_through_activation_then_recovery(self):
        lp = 4
        mem = MemoryWindow([lp], 2)
        for _ in range(lp):
            mem.commit_generation(*one_row([0, 0], [3, 3]))
        assert focus_flags(mem).tolist() == [True]
        mem.commit_generation(*one_row([1, 0], [2, 3]))  # drops the oldest column, keeps lp - 1 without success
        assert focus_flags(mem).tolist() == [False]


class TestChooseSource:
    """``choose_sources`` over K = 3 task rows; each test reads one row."""

    P = np.array([[0.9, 0.05, 0.05], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5]])

    def choose(self, focus, us):
        return choose_sources(self.P, np.array(focus), np.array(us, dtype=float)[:, None])[:, 0]

    def test_focus_forces_self(self):
        assert self.choose([False, False, True], [0.0, 0.0, 0.0])[2] == 2

    def test_degenerate_distribution(self):
        assert self.choose([False] * 3, [0.0, 0.7, 0.0])[1] == 0

    def test_roulette_path(self):
        assert self.choose([False] * 3, [0.0, 0.0, 0.9])[2] == 2


class TestStackedRows:
    """The (K, k) forms used by the optimizer equal the one-row computation
    row by row, bit for bit."""

    @given(
        st.integers(1, 12),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.001, 0.1]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_update_probabilities_and_focus_rows(self, k, gens, bp, seed):
        rng = np.random.default_rng(seed)
        lp = 4
        mem = MemoryWindow([lp] * k, k)
        history = []
        for _ in range(gens):
            ns = rng.integers(0, 3, (k, k)) * rng.integers(0, 2, (k, 1))  # some rows all zero
            nf = rng.integers(0, 30, (k, k))
            mem.commit_generation(ns, nf)
            history.append((ns, nf))
        focus = focus_flags(mem)
        kept = history[-lp:]
        got = update_probabilities(mem, bp, 0.001)
        for t in range(k):
            ns = np.sum([c[0][t] for c in kept], axis=0).astype(float)
            nf = np.sum([c[1][t] for c in kept], axis=0).astype(float)
            sr = ns / (ns + nf + 0.001) + bp
            # bp = 0 and no success: every rate is 0, and the row is one-hot on its task
            expected = sr / sr.sum() if sr.sum() > 0 else np.eye(k)[t]
            assert np.array_equal(got[t], expected)
            assert focus[t] == (ns.sum() == 0)

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_roulette_rows_match_searchsorted(self, k, seed):
        rng = np.random.default_rng(seed)
        p = rng.random((k, k)) * (rng.random((k, k)) < 0.6)  # zeros tie the cumulative sums
        p[:, 0] += 1e-3
        p /= p.sum(axis=1, keepdims=True)
        cum = np.cumsum(p, axis=1)
        us = np.concatenate([rng.random((k, 40)), cum, np.zeros((k, 1)), np.ones((k, 1))], axis=1)
        got = roulette_select_many(p, us)
        for t in range(k):
            expected = np.minimum(np.searchsorted(np.cumsum(p[t]), us[t], side="right"), k - 1)
            assert np.array_equal(got[t], expected)


def roulette_reference(p, us):
    """The (rows, N, k) form: count every cumulative probability at or below
    u, then clip the float tail at k − 1."""
    cum = np.cumsum(p, axis=1)
    return np.minimum(np.count_nonzero(cum[:, None, :] <= us[:, :, None], axis=2), p.shape[1] - 1)


@given(
    st.integers(1, 12),
    st.integers(1, 5),
    st.floats(0.0, 0.9),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_roulette_equals_count_and_clip_form(k, rows, zeros, seed):
    """``roulette_select_many`` gives the integers of the count-and-clip
    form, on random draws, on every cumulative edge and just below it, with
    zero probabilities (repeated edges), and at or above the last
    cumulative sum (the float tail)."""
    rng = np.random.default_rng(seed)
    p = rng.random((rows, k)) * (rng.random((rows, k)) >= zeros)
    p[:, rng.integers(0, k)] += 1e-3  # a row is never all zero
    p /= p.sum(axis=1, keepdims=True)
    cum = np.cumsum(p, axis=1)
    last = cum[:, -1:]
    us = np.concatenate(
        [rng.random((rows, 30)), cum, np.nextafter(cum, -np.inf), last, np.nextafter(last, np.inf),
         np.zeros((rows, 1)), np.ones((rows, 1)), np.full((rows, 1), 0.9999999999999999)],
        axis=1,
    )
    got = roulette_select_many(p, us)
    assert got.dtype == np.intp
    assert np.array_equal(got, roulette_reference(p, us))
