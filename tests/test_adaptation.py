import warnings
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
    roulette_select,
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


def window_with_sums(ns_sums, nf_sums, lp=10):
    """One committed column carrying the requested totals."""
    k = len(ns_sums)
    mem = MemoryWindow(lp, k)
    mem.record_counts(np.asarray(ns_sums), np.asarray(nf_sums))
    mem.commit_generation()
    return mem


class TestMemoryWindow:
    def test_first_record_lands_in_column(self):
        mem = MemoryWindow(5, 3)
        mem.record(0, improved=True)
        mem.commit_generation()
        assert np.array_equal(mem.success_sums(), [1, 0, 0])
        assert np.array_equal(mem.failure_sums(), [0, 0, 0])

    def test_column_conserves_population(self):
        mem = MemoryWindow(5, 2)
        rng = np.random.default_rng(0)
        for i in range(50):
            mem.record(int(rng.integers(2)), improved=bool(rng.integers(2)))
        mem.commit_generation()
        ns, nf = mem.columns()
        assert (ns[-1].sum() + nf[-1].sum()) == 50

    def test_ring_eviction_matches_naive_oracle(self):
        lp, k = 4, 3
        mem = MemoryWindow(lp, k)
        naive: list[tuple[np.ndarray, np.ndarray]] = []
        rng = np.random.default_rng(42)
        for gen in range(25):
            ns_col = rng.integers(0, 5, k)
            nf_col = rng.integers(0, 5, k)
            mem.record_counts(ns_col, nf_col)
            mem.commit_generation()
            naive.append((ns_col, nf_col))
            kept = naive[-lp:]
            assert mem.filled == min(gen + 1, lp)
            assert np.array_equal(mem.success_sums(), np.sum([c[0] for c in kept], axis=0))
            assert np.array_equal(mem.failure_sums(), np.sum([c[1] for c in kept], axis=0))

    def test_columns_ordered_oldest_to_newest(self):
        mem = MemoryWindow(3, 1)
        for value in (1, 2, 3, 4):
            mem.record_counts([value], [0])
            mem.commit_generation()
        ns, _ = mem.columns()
        assert ns[:, 0].tolist() == [2, 3, 4]

    def test_explicit_eviction(self):
        mem = MemoryWindow(3, 2)
        for _ in range(3):
            mem.record_counts([1, 0], [0, 1])
            mem.commit_generation()
        mem.evict_oldest()
        assert mem.filled == 2
        assert np.array_equal(mem.success_sums(), [2, 0])

    def test_evict_empty_raises(self):
        with pytest.raises(EmptyWindowError):
            MemoryWindow(3, 2).evict_oldest()

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_per_row_lengths_match_naive_oracle(self, lps, seed):
        rng = np.random.default_rng(seed)
        rows, k = len(lps), 3
        mem = MemoryWindow(np.array(lps), k, rows=rows)
        naive = []
        for gen in range(15):
            ns_col, nf_col = rng.integers(0, 5, (2, rows, k))
            mem.record_counts(ns_col, nf_col)
            mem.commit_generation()
            naive.append((ns_col, nf_col))
            for r, lp in enumerate(lps):
                kept = naive[-lp:]
                assert mem.filled[r] == min(gen + 1, lp)
                assert np.array_equal(mem.success_sums()[r], np.sum([c[0][r] for c in kept], axis=0))
                assert np.array_equal(mem.failure_sums()[r], np.sum([c[1][r] for c in kept], axis=0))

    def test_record_out_of_range(self):
        mem = MemoryWindow(3, 2)
        with pytest.raises(IndexError):
            mem.record(2, improved=True)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            MemoryWindow(0, 2)


class TestUpdateProbabilities:
    def test_uniform_when_no_outcomes(self):
        mem = window_with_sums([0, 0, 0, 0], [0, 0, 0, 0])
        p = update_probabilities(mem, bp=0.001, eps=0.001)
        assert np.allclose(p, 0.25, rtol=1e-12)

    def test_worked_two_source_example(self):
        mem = window_with_sums([3, 1], [1, 3])
        p = update_probabilities(mem, bp=0.001, eps=0.001)
        expected = exact_probabilities([3, 1], [1, 3])
        assert np.allclose(p, expected, rtol=1e-12)
        assert p[0] == pytest.approx(0.74950, abs=5e-6)
        assert p[1] == pytest.approx(0.25050, abs=5e-6)

    def test_floor_keeps_dead_source_selectable(self):
        mem = window_with_sums([5, 0], [0, 5])
        p = update_probabilities(mem, bp=0.001, eps=0.001)
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
            mem = window_with_sums(ns, nf)
            p = update_probabilities(mem, bp=0.001, eps=0.001)
            expected = exact_probabilities(ns, nf)
            assert np.allclose(p, expected, rtol=1e-12, atol=0)

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindowError):
            update_probabilities(MemoryWindow(5, 2), bp=0.001, eps=0.001)

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
        p = update_probabilities(window_with_sums(ns, nf), bp=bp, eps=0.001)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0)

    def test_bp_zero_row_without_success_is_one_hot_on_own_task(self):
        # rows 0 and 2 have no success in the window: with bp = 0 every rate
        # is 0, which used to give a 0/0 NaN row and a RuntimeWarning
        mem = MemoryWindow(3, 3, rows=3)
        mem.record_counts([[0, 0, 0], [2, 0, 1], [0, 0, 0]], [[4, 4, 2], [1, 3, 4], [0, 0, 0]])
        mem.commit_generation()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = update_probabilities(mem, bp=0.0, eps=0.001)
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.array_equal(p[0], [1.0, 0.0, 0.0])
        assert np.array_equal(p[2], [0.0, 0.0, 1.0])
        # a stack of two cells: row t·2 + c belongs to task t
        stacked = MemoryWindow(3, 2, rows=4)
        stacked.record_counts(np.zeros((4, 2)), np.ones((4, 2)))
        stacked.commit_generation()
        assert np.array_equal(update_probabilities(stacked, 0.0, 0.001), [[1, 0], [1, 0], [0, 1], [0, 1]])

    def test_per_row_floor(self):
        mem = MemoryWindow(3, 2, rows=2)
        mem.record_counts([[3, 1], [3, 1]], [[1, 3], [1, 3]])
        mem.commit_generation()
        p = update_probabilities(mem, np.array([0.001, 0.1]), 0.001)
        assert np.array_equal(p[0], update_probabilities(window_with_sums([3, 1], [1, 3]), 0.001, 0.001))
        assert np.array_equal(p[1], update_probabilities(window_with_sums([3, 1], [1, 3]), 0.1, 0.001))

    def test_more_successes_raise_probability(self):
        base = update_probabilities(window_with_sums([2, 2], [5, 5]), 0.001, 0.001)
        more = update_probabilities(window_with_sums([4, 2], [5, 5]), 0.001, 0.001)
        assert more[0] > base[0]


class TestRoulette:
    def test_certain_bin(self):
        assert roulette_select(np.array([1.0, 0.0]), 0.3) == 0

    def test_cumulative_boundaries(self):
        assert roulette_select(np.array([0.5, 0.5]), 0.6) == 1
        assert roulette_select(np.array([0.25, 0.25, 0.5]), 0.4) == 1
        assert roulette_select(np.array([0.25, 0.25, 0.5]), 0.9) == 2

    def test_exact_edge_goes_right(self):
        assert roulette_select(np.array([0.5, 0.5]), 0.5) == 1

    def test_float_tail_guard(self):
        p = np.array([0.3, 0.3, 0.4])
        assert roulette_select(p, 0.999999999999) == 2

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        us = rng.random(500)
        many = roulette_select_many(p, us)
        singles = np.array([roulette_select(p, u) for u in us])
        assert np.array_equal(many, singles)

    def test_empirical_frequencies(self):
        p = np.array([0.2, 0.3, 0.5])
        n = 100_000
        rng = np.random.default_rng(99)
        picks = roulette_select_many(p, rng.random(n))
        freq = np.bincount(picks, minlength=3) / n
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3 * se)


class TestFocus:
    def test_all_zero_success_activates(self):
        mem = MemoryWindow(3, 2)
        for _ in range(3):
            mem.record_counts([0, 0], [5, 5])
            mem.commit_generation()
        assert focus_flags(mem)

    def test_any_success_deactivates(self):
        mem = MemoryWindow(3, 2)
        mem.record_counts([0, 1], [5, 4])
        mem.commit_generation()
        assert not focus_flags(mem)

    def test_empty_window_not_focused(self):
        assert not focus_flags(MemoryWindow(3, 2))

    def test_step_through_activation_then_recovery(self):
        lp = 4
        mem = MemoryWindow(lp, 2)
        for _ in range(lp):
            mem.record_counts([0, 0], [3, 3])
            mem.commit_generation()
        assert focus_flags(mem)
        mem.evict_oldest()
        mem.record_counts([1, 0], [2, 3])
        mem.commit_generation()
        assert not focus_flags(mem)


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
        mem = MemoryWindow(lp, k, rows=k)
        history = []
        for _ in range(gens):
            ns = rng.integers(0, 3, (k, k)) * rng.integers(0, 2, (k, 1))  # some rows all zero
            nf = rng.integers(0, 30, (k, k))
            mem.record_counts(ns, nf)
            mem.commit_generation()
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
