import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpso.benchmarks import make_task
from mtpso.core import MtoProblem, RunConfig
from mtpso.metrics import (
    FevTable,
    TransferStats,
    format_cell,
    sci,
    score,
    transfer_rates,
)
from mtpso.optimizer import run


def brute_force_score(values, ddof=0):
    """Plain-loop recomputation of the standardized-residual score."""
    q, k, l = values.shape
    out = [0.0] * q
    for j in range(k):
        pooled = [values[qq, j, ll] for qq in range(q) for ll in range(l)]
        mu = sum(pooled) / len(pooled)
        var = sum((v - mu) ** 2 for v in pooled) / (len(pooled) - ddof)
        sigma = var ** 0.5
        if sigma == 0:
            continue
        for qq in range(q):
            for ll in range(l):
                out[qq] += (values[qq, j, ll] - mu) / sigma
    return np.array(out)


class TestScore:
    def test_worked_example(self):
        table = FevTable(np.array([[[0.0, 0.0]], [[2.0, 2.0]]]))
        assert np.allclose(score(table), [-2.0, 2.0], rtol=1e-12)

    def test_identical_tables_score_zero(self):
        values = np.tile(np.array([[[1.0, 3.0, 5.0]]]), (4, 1, 1))
        assert np.allclose(score(FevTable(values)), 0.0)

    def test_constant_table_scores_zero_with_warning(self):
        with pytest.warns(UserWarning, match="zero spread"):
            assert np.allclose(score(FevTable(np.full((3, 2, 4), 7.0))), 0.0)

    def test_scores_sum_to_zero(self):
        rng = np.random.default_rng(0)
        values = rng.random((4, 3, 6))
        assert score(FevTable(values)).sum() == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            q, k, l = rng.integers(2, 5), rng.integers(1, 4), rng.integers(1, 8)
            values = rng.random((q, k, l)) * 100
            assert np.allclose(score(values), brute_force_score(values), rtol=1e-12)

    def test_sample_std_variant(self):
        values = np.array([[[0.0, 0.0]], [[2.0, 2.0]]])
        expected = brute_force_score(values, ddof=1)
        assert np.allclose(score(values, std="sample"), expected, rtol=1e-12)
        # sample sigma of (0,0,2,2) is sqrt(4/3); two runs each at distance 1
        assert expected[0] == pytest.approx(-np.sqrt(3.0), rel=1e-12)

    def test_shift_invariance_per_task(self):
        rng = np.random.default_rng(7)
        values = rng.random((3, 2, 5))
        shifted = values.copy()
        shifted[:, 1, :] += 123.0
        assert np.allclose(score(values), score(shifted), rtol=1e-9)

    def test_scale_invariance_per_task(self):
        rng = np.random.default_rng(8)
        values = rng.random((3, 2, 5))
        scaled = values.copy()
        scaled[:, 0, :] *= 1e6
        assert np.allclose(score(values), score(scaled), rtol=1e-9)

    def test_zero_spread_task_warns_and_contributes_nothing(self):
        values = np.array([[[1.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [4.0, 4.0]]])
        with pytest.warns(UserWarning, match="task 1"):
            got = score(values)
        reference = score(values[:, 1:, :])
        assert np.allclose(got, reference)

    def test_needs_two_algorithms(self):
        with pytest.raises(ValueError, match="at least 2"):
            score(np.zeros((1, 2, 3)))

    def test_bad_std_mode(self):
        with pytest.raises(ValueError, match="std"):
            score(np.zeros((2, 2, 2)), std="median")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sum_zero_property(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random((3, 2, 4)) * 10
        assert score(values).sum() == pytest.approx(0.0, abs=1e-8)


class TestFevTable:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            FevTable(np.array([[[-1.0]]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            FevTable(np.array([[[np.nan]]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="tensor"):
            FevTable(np.zeros((2, 2)))


def fake_result(best_fevs, counts=None, pop=10, algorithm="samtpso-s1"):
    from mtpso.optimizer import RunResult

    best = np.asarray(best_fevs, dtype=float)
    k = best.shape[0]
    return RunResult(
        algorithm=algorithm,
        seed=0,
        pop_per_task=pop,
        fev_trace=best[None, :],
        source_counts=counts,
        best_positions=np.zeros((k, 3)),
        best_fevs=best,
    )


class TestFormatting:
    def test_sci_small(self):
        assert sci(0.006) == "6.00E-3"

    def test_sci_large(self):
        assert sci(25.9) == "2.59E+1"

    def test_sci_zero(self):
        assert sci(0.0) == "0.00E+0"

    def test_sci_negative_score(self):
        assert sci(-21.7) == "-2.17E+1"

    def test_format_cell(self):
        assert format_cell(0.006, 0.0077) == "6.00E-3(7.70E-3)"


class TestTransferRates:
    def test_pso_rejected(self):
        with pytest.raises(ValueError, match="choose no knowledge sources"):
            transfer_rates(fake_result([1.0, 2.0], counts=None, algorithm="pso"))

    def test_no_move_generations_rejected(self):
        res = fake_result([1.0, 2.0], counts=np.zeros((0, 2, 2), dtype=int))
        with pytest.raises(ValueError, match="no move generations"):
            transfer_rates(res)

    def test_all_self_choices_give_identity(self):
        counts = np.zeros((6, 2, 2), dtype=int)
        counts[:, 0, 0] = 10
        counts[:, 1, 1] = 10
        stats = transfer_rates(fake_result([1.0, 2.0], counts=counts))
        assert np.allclose(stats.itk, np.eye(2))

    def test_mean_over_generations(self):
        counts = np.array([[[10, 0], [0, 10]], [[5, 5], [5, 5]]], dtype=int)
        stats = transfer_rates(fake_result([1.0, 2.0], counts=counts))
        assert np.allclose(stats.itk, [[0.75, 0.25], [0.25, 0.75]])

    def test_rows_sum_to_one_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TransferStats(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_first_generation_near_uniform_on_real_run(self):
        problem = MtoProblem(tasks=(make_task("sphere", 5, 0), make_task("sphere", 5, 1)))
        cfg = RunConfig(algorithm="samtpso-s1", pop_per_task=200, seed=11, max_gens=3)
        result = run(problem, cfg)
        first = result.source_counts[0] / result.pop_per_task
        tol = 3 * np.sqrt(0.25 / 200)
        assert abs(first[0, 1] - 0.5) <= tol
        assert abs(first[1, 0] - 0.5) <= tol
