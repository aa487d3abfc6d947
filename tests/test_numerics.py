"""Numerical kernels: power method, CG, a cubic's largest root, LBFGS, finite
differences."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_diff_grad
from poisson_pr import numerics
from poisson_pr.numerics import (
    LBFGS_MEMORY,
    WOLFE_MAX_EVALS,
    DegenerateIterateError,
    _wolfe_line_search,
    cg_solve,
    cubic_largest_root,
    lbfgs_minimize,
    power_method,
)


def largest_root(c3, c2, c1, c0):
    """The largest real root of one cubic, from `cubic_largest_root`."""
    return float(cubic_largest_root(c3, *(np.array([c], float) for c in (c2, c1, c0)))[0])


def lbfgs_last(fg, x0, n_iters):
    """The last of at most `n_iters` LBFGS iterates; the steps end early at an
    exact zero gradient."""
    x = x0
    try:
        for x, _ in islice(lbfgs_minimize(fg, x0), n_iters):
            pass
    except DegenerateIterateError as exc:
        if str(exc) != "zero gradient":
            raise
    return x


class TestPowerMethod:
    @staticmethod
    def counted(h):
        """(op, calls): the product with h, and the list it appends to per call."""
        calls = []

        def op(z):
            calls.append(1)
            return h @ z
        return op, calls

    @staticmethod
    def hermitian(eigenvalues, seed):
        """A Hermitian PSD matrix with the given spectrum and random eigenvectors."""
        rng = np.random.default_rng(seed)
        n = len(eigenvalues)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return (u * np.asarray(eigenvalues, float)) @ u.conj().T

    @staticmethod
    def start(n, seed):
        """The power method's random unit start vector for `seed`."""
        gen = np.random.default_rng(seed)
        v = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        return v / np.linalg.norm(v)

    def test_diagonal_operator(self):
        d = np.array([3.0, 1.0])
        lam, v = power_method(lambda z: d * z, 2, iters=200, seed=0)
        assert lam == pytest.approx(3.0, abs=1e-10)
        assert abs(abs(v[0]) - 1.0) < 1e-8
        assert abs(v[1]) < 1e-8

    def test_identity_operator(self):
        lam, v = power_method(lambda z: z, 5, iters=50, seed=1)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_random_psd_residual(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = a.conj().T @ a
        lam, v = power_method(lambda z: h @ z, 8, iters=200, seed=2)
        assert np.linalg.norm(h @ v - lam * v) < 1e-6

    def test_zero_operator(self):
        op, calls = self.counted(np.zeros((4, 4)))
        lam, v = power_method(op, 4, iters=10, seed=0)
        assert len(calls) == 1 and lam == 0.0
        assert v.tobytes() == self.start(4, 0).tobytes()

    def test_no_iterations_return_the_start(self):
        op, calls = self.counted(np.eye(4))
        lam, v = power_method(op, 4, iters=0, seed=7)
        assert not calls and lam == 0.0
        assert v.tobytes() == self.start(4, 7).tobytes()

    def test_settles_before_the_cap_bit_identical_to_its_stop(self):
        h = self.hermitian([4.0, 2.0, 1.0, 0.5, 0.25, 0.1], seed=5)
        op, calls = self.counted(h)
        lam, v = power_method(op, 6, iters=300, seed=3)
        stop = len(calls) - 1
        assert stop < 300 and stop % numerics.POWER_CHECK_EVERY == 0
        op_k, calls_k = self.counted(h)
        lam_k, v_k = power_method(op_k, 6, iters=stop, seed=3)
        assert len(calls_k) == stop + 1
        assert lam == lam_k and v.tobytes() == v_k.tobytes()
        lam_big, v_big = power_method(lambda z: h @ z, 6, iters=1000, seed=3)
        assert lam == lam_big and v.tobytes() == v_big.tobytes()
        assert lam == pytest.approx(4.0, rel=1e-14)

    def test_small_gap_runs_to_its_cap(self):
        h = self.hermitian([1.0, 0.9999, 0.5, 0.25], seed=6)
        op, calls = self.counted(h)
        power_method(op, 4, iters=300, seed=1)
        assert len(calls) == 300 + 1

    @pytest.mark.parametrize("iters", [0, 1, 7, 60])
    def test_one_product_per_iteration_bit_identical_to_two(self, iters):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
        h = a.conj().T @ a
        calls = []

        def op(z):
            calls.append(1)
            return h @ z

        lam, v = power_method(op, 6, iters=iters, seed=9)
        assert len(calls) == (iters + 1 if iters else 0)
        # the loop with a second product for the Rayleigh quotient
        gen = np.random.default_rng(9)
        ref_v = gen.standard_normal(6) + 1j * gen.standard_normal(6)
        ref_v /= np.linalg.norm(ref_v)
        ref_lam = 0.0
        for _ in range(iters):
            w = h @ ref_v
            ref_v = w / np.linalg.norm(w)
            ref_lam = float(np.real(np.vdot(ref_v, h @ ref_v)))
        assert lam == ref_lam
        assert v.tobytes() == ref_v.tobytes()


class TestCgSolve:
    def test_identity(self):
        rhs = np.array([1.0, 2.0, -3.0], dtype=complex)
        x = cg_solve(lambda z: z, rhs)
        assert np.allclose(x, rhs, atol=1e-12)

    def test_diagonal(self):
        d = np.array([1.0, 2.0, 4.0])
        rhs = np.ones(3, dtype=complex)
        x = cg_solve(lambda z: d * z, rhs, iters=10, tol=1e-12)
        assert np.allclose(x, [1.0, 0.5, 0.25], atol=1e-10)

    def test_tolerance_honored(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        h = a.T @ a + 0.5 * np.eye(6)
        rhs = rng.standard_normal(6).astype(complex)
        x = cg_solve(lambda z: h @ z, rhs, iters=100, tol=1e-10)
        assert np.linalg.norm(h @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_one_product_per_iteration(self):
        # the start x = 0 has residual rhs, so no product is spent on it
        d = np.linspace(1.0, 3.0, 10)
        calls = []

        def op(z):
            calls.append(1)
            return d * z
        x = cg_solve(op, np.ones(10, dtype=complex), iters=4, tol=0.0)
        assert len(calls) == 4
        assert np.all(np.isfinite(x))

    def test_zero_rhs(self):
        x = cg_solve(lambda z: 2.0 * z, np.zeros(3, dtype=complex))
        assert np.all(x == 0)

    def test_exact_in_n_steps_hermitian_complex(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a.conj().T @ a + np.eye(4)
        rhs = (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        x = cg_solve(lambda z: h @ z, rhs, iters=8, tol=1e-14)
        assert np.linalg.norm(h @ x - rhs) < 1e-9 * np.linalg.norm(rhs)


class TestCubicRealRoots:
    def test_three_distinct_roots(self):
        # (m-1)(m-2)(m-3) = m^3 - 6 m^2 + 11 m - 6
        assert largest_root(1.0, -6.0, 11.0, -6.0) == pytest.approx(3.0, abs=1e-9)

    def test_triple_zero_root(self):
        assert largest_root(1.0, 0.0, 0.0, 0.0) == 0.0

    def test_single_real_root(self):
        # m^3 + m has only the real root 0
        assert largest_root(1.0, 0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_near_double_root(self):
        # (m-1)^2 (m-2) = m^3 - 4 m^2 + 5 m - 2: the simple root is the largest
        assert largest_root(1.0, -4.0, 5.0, -2.0) == pytest.approx(2.0, abs=1e-6)

    def test_largest_root_double(self):
        # (m-2)^2 (m-1) = m^3 - 5 m^2 + 8 m - 4: the double root is the largest
        assert largest_root(1.0, -5.0, 8.0, -4.0) == pytest.approx(2.0, abs=1e-9)

    @given(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_constructed_roots_recovered(self, r1, r2, r3):
        # well-separated roots are recovered accurately; clustered roots are
        # inherently ill-conditioned and covered by the dedicated cases above
        rs = sorted([r1, r2, r3])
        if min(rs[1] - rs[0], rs[2] - rs[1]) < 0.1:
            return
        c2 = -(r1 + r2 + r3)
        c1 = r1 * r2 + r1 * r3 + r2 * r3
        c0 = -r1 * r2 * r3
        assert largest_root(1.0, c2, c1, c0) == pytest.approx(rs[2], abs=1e-6)


class TestCubicRoots:
    def test_real_roots_match_numpy_roots(self):
        # 2,000 cubics: three distinct real roots, one real root, a double
        # root (integer roots, so that the coefficients are exact) and ADMM's
        # magnitude cubics, whose c2 = -rho t is never positive
        n = 500
        rng = np.random.default_rng(7)
        lo = rng.uniform(-5, 5, n)
        three = np.stack([lo, lo + rng.uniform(0.5, 3, n),
                          lo + rng.uniform(3.5, 6, n)], 1)
        re, im = rng.uniform(-5, 5, n), rng.uniform(0.5, 3, n)
        one = np.stack([rng.uniform(-5, 5, n), re + 1j * im, re - 1j * im], 1)
        d, s = rng.integers(-5, 6, n), rng.integers(-5, 6, n)
        s[s == d] += 11  # a double root, not a triple one
        double = np.stack([d, d, s], 1).astype(float)
        c3, c2, c1, c0 = np.array([np.poly(r) for r in np.concatenate(
            [three, one, double])]).real.T
        rho = rng.choice([0.5, 2.0, 8.0, 32.0], n)
        t, y, b = rng.uniform(0, 10, n), rng.integers(0, 6, n), rng.uniform(0.01, 2, n)
        c3 = np.concatenate([c3, 2.0 + rho])
        c2 = np.concatenate([c2, -rho * t])
        c1 = np.concatenate([c1, 2.0 * b - 2.0 * y + rho * b])
        c0 = np.concatenate([c0, -rho * b * t])
        kind = np.repeat(["three", "one", "double", "admm"], n)

        # cubic_largest_root takes a scalar c3: one call per leading coefficient
        roots = np.full(4 * n, np.nan)
        for lead in np.unique(c3):
            rows = c3 == lead
            roots[rows] = cubic_largest_root(lead, c2[rows], c1[rows], c0[rows])
        assert np.all(np.isfinite(roots))
        err = roots[kind == "double"] - np.max(double, axis=1)
        assert np.all(np.abs(err) <= 1e-9 * np.max(np.abs(double), axis=1))
        for i in range(4 * n):
            ref = np.roots([c3[i], c2[i], c1[i], c0[i]])
            # np.roots splits a double root by about sqrt(eps) (it is an
            # eigenvalue of a defective companion matrix), so it is only that
            # good there; the exact integer roots are checked above
            tol = (1e-6 if kind[i] == "double" else 1e-9) * np.max(np.abs(ref))
            real = ref.real[np.abs(ref.imag) <= tol]
            assert abs(roots[i] - np.max(real)) <= tol, (kind[i], roots[i], ref)

    def test_overflowed_discriminant_is_not_a_repeated_root(self):
        # ADMM's cubic at y = 1e150, t = 1e-3, b = 0.1, rho = 8: p^3 overflows,
        # and the repeated-root closed form gave -4e-154 for the root 4.5e74
        rho, y, b, t = 8.0, 1e150, 0.1, 1e-3
        with np.errstate(over="ignore"):
            root = cubic_largest_root(2.0 + rho, np.array([-rho * t]),
                                      np.array([2 * b - 2 * y + rho * b]),
                                      np.array([-rho * b * t]))[0]
        assert root == pytest.approx(np.sqrt(2 * y / (2 + rho) - b), rel=1e-12)

    @pytest.mark.parametrize("y, t", [(1e150, 1e74), (1e150, 1e100), (1e200, 1e74),
                                      (1e300, 1e-3), (1e300, 1e150)])
    def test_huge_coefficients_give_a_finite_root(self, y, t):
        # ADMM's cubic at a huge count and modulus: p^3 and q^2 overflowed
        # (a NaN root at y = 1e150, t = 1e74, whose root is about 4.9e74);
        # the rows of normal size mixed in are solved exactly as alone
        rho, b = 8.0, 0.1
        rng = np.random.default_rng(5)
        tn, yn = rng.uniform(0, 10, 6), rng.integers(1, 6, 6).astype(float)
        tt, yy = np.r_[t, tn], np.r_[y, yn]
        c3, c2, c1, c0 = 2.0 + rho, -rho * tt, 2.0 * b - 2.0 * yy + rho * b, -rho * b * tt
        root = cubic_largest_root(c3, c2, c1, c0)
        assert np.array_equal(root[1:], cubic_largest_root(c3, c2[1:], c1[1:], c0[1:]))
        m = root[0]
        assert np.isfinite(m) and m > 0
        # the residual over the size of its terms, all divided by m^3
        terms = np.array([c3, c2[0] / m, c1[0] / m / m, c0[0] / m / m / m])
        assert abs(np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))


class TestWolfeLineSearch:
    def test_exhausted_search_returns_its_own_cost_and_gradient(self):
        # an ascent direction fails sufficient decrease at every trial step
        calls = []

        def fg(x):
            calls.append(x.copy())
            return float(np.sum(x**2)), 2.0 * x

        x, p = np.array([1.0, -0.5]), np.array([1.0, -0.5])
        f0, g0 = fg(x)
        t, f, g = _wolfe_line_search(fg, x, f0, g0, p)
        assert len(calls) == 1 + WOLFE_MAX_EVALS
        f_t, g_t = fg(x + t * p)
        assert f == f_t
        assert np.array_equal(g, g_t)


class TestLbfgs:
    def test_quadratic_bowl(self):
        h = np.diag([1.0, 4.0, 9.0])
        target = np.array([1.0, -2.0, 0.5])

        def fg(x):
            r = x - target
            return 0.5 * float(r @ (h @ r)), h @ r

        x = lbfgs_last(fg, np.zeros(3), 6)
        assert np.linalg.norm(x - target) < 1e-8

    def test_zero_gradient_start(self):
        def fg(x):
            return float(np.sum(x**2)), 2.0 * x

        with pytest.raises(DegenerateIterateError, match="zero gradient"):
            next(lbfgs_minimize(fg, np.zeros(4)))

    def test_rosenbrock(self):
        def fg(x):
            a, b = x
            f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
            g = np.array([
                -2 * (1 - a) - 400 * a * (b - a * a),
                200 * (b - a * a),
            ])
            return float(f), g

        x = lbfgs_last(fg, np.array([-1.2, 1.0]), 200)
        assert fg(x)[0] < 1e-6

    def test_complex_quadratic(self):
        target = np.array([1 + 2j, -0.5j])

        def fg(x):
            r = x - target
            return float(np.sum(np.abs(r) ** 2)), 2.0 * r

        x = lbfgs_last(fg, np.zeros(2, dtype=complex), 20)
        assert np.linalg.norm(x - target) < 1e-7

    def test_each_pair_dots_y_and_s_once(self, monkeypatch):
        # a full memory's two-loop recursion takes one real_dot per pair and
        # loop, plus y'y for the scaling; the line search one per trial
        h = np.linspace(1.0, 1e4, 200)

        def fg(x):
            evals.append(1)
            return 0.5 * float(x @ (h * x)), h * x

        dots, evals = [], []
        real_dot = numerics.real_dot
        monkeypatch.setattr(numerics, "real_dot",
                            lambda a, b: dots.append(1) or real_dot(a, b))
        steps = lbfgs_minimize(fg, np.ones(200))
        for _ in range(LBFGS_MEMORY + 1):
            next(steps)
        dots.clear()
        evals.clear()
        next(steps)
        # two loops, the scaling, the descent check, the line search's slope
        # at 0 and at each trial, the new pair's curvature
        assert len(dots) <= 2 * LBFGS_MEMORY + 4 + len(evals)


    @staticmethod
    def offset_bowl(evals):
        """fg of a quadratic whose minimum, 100, is far above its rounding, so
        the cost settles while the gradient stays nonzero; counts its calls."""
        h = np.linspace(1.0, 50.0, 8)
        target = np.linspace(-1.0, 2.0, 8)

        def fg(x):
            evals.append(1)
            r = x - target
            return 100.0 + 0.5 * float(r @ (h * r)), h * r
        return fg

    @staticmethod
    def until_held(steps, n_iters=200):
        """(number of `next` calls, x) at the first yield that repeats the
        previous iterate, the same array."""
        prev = None
        for k in range(1, n_iters + 1):
            x, _ = next(steps)
            if x is prev:
                return k, x
            prev = x
        raise AssertionError(f"no iterate held in {n_iters} steps")

    def test_holds_without_evaluating_once_the_cost_is_settled(self):
        evals = []
        fg = self.offset_bowl(evals)
        steps = lbfgs_minimize(fg, np.zeros(8))
        k, x = self.until_held(steps)
        f, g = fg(x)
        assert np.linalg.norm(g) > 0.0  # a stall, not a zero gradient
        evals.clear()
        for _ in range(5):
            x_k, f_k = next(steps)
            assert x_k is x and f_k == f
        assert not evals

    def test_a_stall_with_pairs_retries_along_minus_g(self, monkeypatch):
        searches = []
        search = numerics._wolfe_line_search

        def recorded(fg, x, f0, g0, p):
            searches.append((x, g0, p))
            return search(fg, x, f0, g0, p)
        monkeypatch.setattr(numerics, "_wolfe_line_search", recorded)
        _, x = self.until_held(lbfgs_minimize(self.offset_bowl([]), np.zeros(8)))
        # the two searches from the held x: the LBFGS direction, then -g
        (x1, g1, p1), (x2, g2, p2) = searches[-2:]
        assert x1 is x and x2 is x
        assert not np.array_equal(p1, -g1)
        assert np.array_equal(p2, -g2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_trial_cost_still_ends_the_run(self, bad):
        # every point but the start has a non-finite cost: an infinite one
        # exhausts the search, a NaN one passes it; either is taken, not held
        x0 = np.ones(3)

        def fg(x):
            f = float(np.sum(x**2)) if np.array_equal(x, x0) else bad
            return f, 2.0 * x

        steps = lbfgs_minimize(fg, x0)
        x, f = next(steps)
        assert not np.array_equal(x, x0) and not np.isfinite(f)
        with pytest.raises(DegenerateIterateError, match="non-finite cost"):
            next(steps)


class TestFiniteDiffGrad:
    def test_norm_squared(self):
        g = finite_diff_grad(lambda x: float(np.sum(np.abs(x) ** 2)),
                             np.array([1.0, 0.0, 0.0]))
        assert np.allclose(g, [2.0, 0.0, 0.0], atol=1e-6)

    def test_complex_direction(self):
        # for f = ||x||^2 the ascent direction is 2x; check real and imag axes
        x = np.array([1.0 + 1.0j, 2.0 - 0.5j])
        g = finite_diff_grad(lambda z: float(np.sum(np.abs(z) ** 2)), x)
        assert np.allclose(g, 2.0 * x, atol=1e-6)

    def test_eps_refinement(self):
        # central differences: error drops roughly quadratically in eps
        def f(x):
            return float(np.sum(x**4))

        x = np.array([1.3])
        exact = 4.0 * 1.3**3
        e1 = abs(finite_diff_grad(f, x, eps=1e-2)[0] - exact)
        e2 = abs(finite_diff_grad(f, x, eps=1e-3)[0] - exact)
        assert e2 < e1 / 10.0
