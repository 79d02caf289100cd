import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpso import benchmarks
from mtpso.benchmarks import (
    BenchmarkDataError,
    build_suite,
    load_problem_files,
    make_task,
    problem_to_dict,
    random_rotation,
    task_eval,
)
from mtpso.core import MtoProblem, encode, evaluate_task


class TestBaseFunctions:
    def test_sphere_minimum(self):
        assert task_eval("sphere", np.zeros(10)) == 0.0

    def test_rosenbrock_minimum_at_ones(self):
        # the task form is the textbook function at y + 1, whose minimum
        # lies at ones
        assert task_eval("rosenbrock", np.zeros(5)) == 0.0

    def test_ackley_minimum(self):
        assert task_eval("ackley", np.zeros(50)) == pytest.approx(0.0, abs=1e-9)

    def test_griewank_minimum(self):
        assert task_eval("griewank", np.zeros(7)) == 0.0

    def test_rastrigin_hand_value(self):
        # per dimension at y=1: 1 - 10*cos(2pi) + 10 = 1
        assert task_eval("rastrigin", np.ones(2)) == pytest.approx(2.0, rel=1e-12)

    def test_weierstrass_minimum_exact(self):
        assert task_eval("weierstrass", np.zeros(10)) == 0.0

    def test_weierstrass_series_in_place_matches_expression(self):
        # the in-place recurrence keeps the bits of the expression form
        def expression(theta):
            c = np.cos(theta)
            total = c.copy()
            for k in range(1, benchmarks._WEIERSTRASS_KMAX + 1):
                c = (4.0 * c * c - 3.0) * c
                total += benchmarks._WK_A[k] * c
            return total

        rng = np.random.default_rng(2718)
        for shape in ((50, 50), (50, 25), (50, 5), (250, 50), (7,)):
            theta = 2.0 * np.pi * (rng.uniform(-0.5, 0.5, shape) + 0.5)
            assert np.array_equal(benchmarks._weierstrass_series(theta), expression(theta))

    @given(
        st.lists(
            st.one_of(
                st.floats(-0.5, 0.5),
                st.tuples(st.integers(-3, 3), st.floats(-1e-8, 1e-8)).map(sum),
                st.tuples(st.integers(-3, 3), st.floats(-1e-6, 1e-6)).map(lambda p: p[0] + 0.5 + p[1]),
                st.sampled_from([0.0, 0.5, -0.5, 1e-300, 5e-324]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_weierstrass_series_matches_cosine_recurrence(self, ys):
        # the recurrence on d = a^k c_k keeps the bits of the one on
        # c_k = cos(3^k theta), in its in-place operation order
        def on_cosines(theta):
            c = np.cos(theta)
            total = c.copy()
            t = np.empty_like(c)
            for k in range(1, benchmarks._WEIERSTRASS_KMAX + 1):
                np.multiply(c, 4.0, out=t)
                t *= c
                t -= 3.0
                c *= t
                np.multiply(c, benchmarks._WK_A[k], out=t)
                total += t
            return total

        theta = 2.0 * np.pi * (np.array(ys) + 0.5)
        assert np.array_equal(benchmarks._weierstrass_series(theta), on_cosines(theta))

    def test_weierstrass_matches_direct_series(self):
        # independent oracle: the literal truncated double sum
        def direct(y):
            k = np.arange(21)
            a = 0.5**k
            b = 3.0**k
            per = np.sum(a * np.cos(2 * np.pi * b * (y[:, None] + 0.5)), axis=1)
            return per.sum() - len(y) * np.sum(a * np.cos(np.pi * b))

        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.uniform(-0.7, 0.7, 6)
            assert task_eval("weierstrass", y) == pytest.approx(direct(y), abs=1e-5)

    def test_schwefel_constant_via_minimization(self):
        # the canonical optimum location, confirmed by numeric minimization
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda y: -(y * np.sin(np.sqrt(y))), bounds=(400, 440), method="bounded"
        )
        assert res.x == pytest.approx(420.9687, abs=1e-3)
        assert res.x == pytest.approx(benchmarks.SCHWEFEL_OPT, abs=1e-3)
        # the task form is the textbook function at y + SCHWEFEL_OPT
        assert task_eval("schwefel", np.zeros(10)) == pytest.approx(0.0, abs=1e-3)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3, 3, (8, 5))
        for name in ("sphere", "rosenbrock", "ackley", "rastrigin", "griewank", "weierstrass", "schwefel"):
            batch = task_eval(name, pts)
            single = np.array([task_eval(name, p) for p in pts])
            assert np.allclose(batch, single, rtol=1e-12)

    def test_task_frame_minimum_at_origin(self):
        for name in ("sphere", "rosenbrock", "ackley", "rastrigin", "griewank", "weierstrass", "schwefel"):
            assert task_eval(name, np.zeros(6)) == pytest.approx(0.0, abs=1e-12)

    def test_schwefel_task_frame_nonnegative_far_out(self):
        # rotated tasks feed arguments way beyond +-500; the boundary
        # treatment must keep the origin the global minimum
        rng = np.random.default_rng(5)
        y = rng.uniform(-6000, 6000, (4000, 10))
        assert np.all(task_eval("schwefel", y) >= 0.0)

    def test_schwefel_out_of_box_values_pinned(self):
        # arguments beyond +-500 on both sides fold back toward the boundary
        # with a quadratic penalty; these exact floats are pinned, so any
        # rewrite of the fold must keep every bit (and +-500 itself is inside)
        ones = np.array([[650.0], [-650.0], [2500.5], [-2500.5], [500.0], [-500.0]])
        assert benchmarks._schwefel_bounded(ones).tolist() == [
            470.51275084423884,
            371.9530491557611,
            994.3714167414502,
            643.9944332585497,
            599.5720585313917,
            238.39374146860823,
        ]
        pairs = np.array([[650.0, -650.0], [-1234.5, 1234.5], [500.25, -500.25], [7e5, -3e3], [-499.0, 1500.0]])
        assert benchmarks._schwefel_bounded(pairs).tolist() == [
            840.2158,
            891.914825,
            837.96580625,
            24466162.9658,
            898.78119735162,
        ]

    def test_schwefel_one_sine_pass_matches_expression(self):
        # folding the entries beyond +-500 before the one sine pass keeps
        # the bits of the form that takes the sine twice there
        def expression(y):
            d = y.shape[-1]
            g = y * np.sin(np.sqrt(np.abs(y)))
            out = np.abs(y) > 500.0
            if np.any(out):
                a = np.abs(y[out])
                w = np.copysign(500.0 - np.fmod(a, 500.0), y[out])
                g[out] = w * np.sin(np.sqrt(np.abs(w))) - (a - 500.0) ** 2 / (10000.0 * d)
            return 418.9829 * d - np.sum(g, axis=-1)

        past = np.nextafter(500.0, np.inf)
        edges = [500.0, -500.0, 1000.0, -1000.0, past, -past, 500.0 + 1e-9, -0.0, np.nan, 0.0, 1500.0]
        rng = np.random.default_rng(1414)
        for shape, scale in (((300, 8), 800.0), ((100, 50), 1500.0), ((60, 20), 450.0), ((7,), 3000.0)):
            y = rng.uniform(-scale, scale, shape)
            y.reshape(-1)[: len(edges)] = edges[: y.size]
            kept = y.copy()
            assert np.array_equal(benchmarks._schwefel_bounded(y), expression(y), equal_nan=True)
            assert np.array_equal(y, kept, equal_nan=True)  # the input is left as it was

    def test_unknown_function(self):
        with pytest.raises(KeyError, match="unknown base function"):
            task_eval("camelback", np.zeros(2))


class TestMakeTask:
    def test_deterministic(self):
        a = make_task("sphere", 6, 42)
        b = make_task("sphere", 6, 42)
        assert np.array_equal(a.shift, b.shift)
        assert np.array_equal(a.rotation, b.rotation)

    def test_different_seeds_differ(self):
        a = make_task("sphere", 6, 1)
        b = make_task("sphere", 6, 2)
        assert not np.array_equal(a.shift, b.shift)

    def test_rotation_orthogonal(self):
        for seed in range(5):
            task = make_task("rastrigin", 20, seed)
            err = np.max(np.abs(task.rotation.T @ task.rotation - np.eye(20)))
            assert err <= 1e-9

    def test_shift_in_middle_80_percent(self):
        task = make_task("schwefel", 30, 9)
        assert np.all(task.shift >= -400.0) and np.all(task.shift <= 400.0)

    def test_optimum_value_zero_and_attained(self):
        for name in ("sphere", "rosenbrock", "schwefel", "weierstrass"):
            task = make_task(name, 8, 13)
            u = encode(task.shift, task)
            assert evaluate_task(u, task) == pytest.approx(0.0, abs=1e-10)

    def test_random_points_nonnegative(self):
        rng = np.random.default_rng(0)
        for name in ("sphere", "rosenbrock", "ackley", "rastrigin", "griewank", "weierstrass", "schwefel"):
            task = make_task(name, 10, 21)
            pts = rng.random((10_000, 10))
            vals = evaluate_task(pts, task)
            assert np.all(vals >= 0.0), name

    def test_sphere_strictly_positive_away_from_optimum(self):
        task = make_task("sphere", 10, 22)
        rng = np.random.default_rng(1)
        pts = rng.random((10_000, 10))
        vals = evaluate_task(pts, task)
        assert np.all(vals > 0.0)

    def test_haar_rotation_seedable(self):
        r1 = random_rotation(4, np.random.default_rng(3))
        r2 = random_rotation(4, np.random.default_rng(3))
        assert np.array_equal(r1, r2)
        assert abs(np.linalg.det(r1)) == pytest.approx(1.0, rel=1e-9)


class TestSuite1:
    def test_structure_matches_table(self):
        suite = build_suite("suite1")
        assert len(suite) == 9
        expected = [
            ("griewank", "rastrigin"),
            ("ackley", "rastrigin"),
            ("ackley", "schwefel"),
            ("rastrigin", "sphere"),
            ("ackley", "rosenbrock"),
            ("ackley", "weierstrass"),
            ("rosenbrock", "rastrigin"),
            ("griewank", "weierstrass"),
            ("rastrigin", "weierstrass"),
        ]
        for problem, fns in zip(suite, expected):
            assert tuple(t.base_fn for t in problem.tasks) == fns
            assert problem.num_tasks == 2

    def test_dimensions(self):
        suite = build_suite("suite1")
        dims = [(p.tasks[0].dim, p.tasks[1].dim) for p in suite]
        assert dims[5] == (50, 25)
        assert all(d == (50, 50) for i, d in enumerate(dims) if i != 5)
        assert suite[5].unified_dim == 50

    def test_complete_intersection_shares_unified_optimum(self):
        suite = build_suite("suite1")
        for idx in (0, 1, 2):
            t1, t2 = suite[idx].tasks
            u1 = encode(t1.shift, t1)
            u2 = encode(t2.shift, t2)
            assert np.allclose(u1, u2, atol=1e-12)
            # both tasks are optimal at the shared unified point
            assert evaluate_task(u1, t1) == pytest.approx(0.0, abs=1e-10)
            assert evaluate_task(u1, t2) == pytest.approx(0.0, abs=1e-10)

    def test_partial_intersection_shares_half(self):
        suite = build_suite("suite1")
        for idx in (3, 4, 5):
            t1, t2 = suite[idx].tasks
            shared = -(-suite[idx].unified_dim // 2)  # ceil
            u1 = encode(t1.shift, t1)
            u2 = encode(t2.shift, t2)
            n = min(shared, t2.dim)
            assert np.allclose(u1[:n], u2[:n], atol=1e-12)
            if t2.dim > n:
                assert not np.allclose(u1[n : t2.dim], u2[n : t2.dim])

    def test_no_intersection_independent(self):
        suite = build_suite("suite1")
        for idx in (6, 7, 8):
            t1, t2 = suite[idx].tasks
            u1 = encode(t1.shift, t1)[: t2.dim]
            u2 = encode(t2.shift, t2)
            assert not np.allclose(u1, u2)

    def test_deterministic_in_seed(self):
        a = build_suite("suite1", seed=7)
        b = build_suite("suite1", seed=7)
        c = build_suite("suite1", seed=8)
        assert np.array_equal(a[0].tasks[0].shift, b[0].tasks[0].shift)
        assert np.array_equal(a[3].tasks[1].rotation, b[3].tasks[1].rotation)
        assert not np.array_equal(a[0].tasks[0].shift, c[0].tasks[0].shift)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            build_suite("suite3")


class TestSuite2:
    def test_structure_matches_table(self):
        suite = build_suite("suite2")
        assert len(suite) == 9
        rows = [tuple(t.base_fn for t in p.tasks) for p in suite]
        assert rows[0] == ("sphere",) * 5
        assert rows[3] == ("sphere", "rosenbrock", "rastrigin", "sphere", "rosenbrock")
        assert rows[8] == ("ackley", "rastrigin", "griewank", "weierstrass", "schwefel")
        for p in suite:
            assert p.num_tasks == 5
            assert all(t.dim == 50 for t in p.tasks)

    def test_pairwise_distinct_shifts(self):
        suite = build_suite("suite2")
        tasks = suite[0].tasks
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.allclose(tasks[i].shift, tasks[j].shift)


class TestProblemFiles:
    def test_round_trip(self, tmp_path):
        suite = build_suite("suite1", seed=3)
        for i, problem in enumerate(suite):
            (tmp_path / f"problem_{i + 1:02d}.json").write_text(json.dumps(problem_to_dict(problem)))
        loaded = load_problem_files(tmp_path)
        assert len(loaded) == 9
        for orig, back in zip(suite, loaded):
            for t_orig, t_back in zip(orig.tasks, back.tasks):
                assert t_orig.base_fn == t_back.base_fn
                assert np.array_equal(t_orig.shift, t_back.shift)
                assert np.array_equal(t_orig.rotation, t_back.rotation)

    def test_single_file_with_problem_list(self, tmp_path):
        suite = build_suite("suite1", seed=5)
        payload = {"problems": [problem_to_dict(p) for p in suite[:2]]}
        path = tmp_path / "problems.json"
        path.write_text(json.dumps(payload))
        loaded = load_problem_files(path)
        assert len(loaded) == 2

    def test_missing_field_reports_location(self, tmp_path):
        p = problem_to_dict(build_suite("suite1", seed=1)[0])
        del p["tasks"][1]["shift"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([p]))
        with pytest.raises(BenchmarkDataError, match=r"problem 1, task 2: missing field 'shift'"):
            load_problem_files(path)

    def test_bad_rotation_shape_reported(self, tmp_path):
        p = problem_to_dict(build_suite("suite1", seed=1)[0])
        p["tasks"][0]["rotation"] = [[1.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([p]))
        with pytest.raises(BenchmarkDataError, match="task 1.*rotation"):
            load_problem_files(path)

    def test_unknown_function_reported(self, tmp_path):
        p = problem_to_dict(build_suite("suite1", seed=1)[0])
        p["tasks"][0]["fn"] = "banana"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([p]))
        with pytest.raises(BenchmarkDataError, match="unknown function 'banana'"):
            load_problem_files(path)

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"tasks": [\n  {"fn": }\n]}')
        with pytest.raises(BenchmarkDataError, match="line 2"):
            load_problem_files(path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(BenchmarkDataError, match="no such file"):
            load_problem_files(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(BenchmarkDataError, match="no .json problem files"):
            load_problem_files(tmp_path)


def test_register_custom_base():
    benchmarks.register_base(
        "quartic_test", lambda y: np.sum(np.asarray(y, float) ** 4, axis=-1), -5, 5
    )
    task = make_task("quartic_test", 3, 0)
    assert task.lower[0] == -5.0
    u = encode(task.shift, task)
    assert evaluate_task(u, task) == pytest.approx(0.0, abs=1e-12)
