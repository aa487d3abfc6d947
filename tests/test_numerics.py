"""Numerical kernels: Lanczos, CG, a cubic's largest root, LBFGS, finite
differences."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cg_plain, finite_diff_grad, power_iterate, random_unit_start
from poisson_pr import numerics
from poisson_pr.numerics import (
    LBFGS_MEMORY,
    WOLFE_MAX_EVALS,
    DegenerateIterateError,
    _wolfe_line_search,
    cg_solve,
    cubic_largest_root,
    lanczos_top,
    lbfgs_minimize,
    real_dot,
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


class TestLanczosTop:
    @staticmethod
    def counted(h):
        """(op, inputs): the product with h, and the list of the vectors it
        was called with, copied."""
        inputs = []

        def op(z):
            inputs.append(z.copy())
            return h @ z
        return op, inputs

    @staticmethod
    def hermitian(eigenvalues, seed):
        """A Hermitian PSD matrix with the given spectrum and random eigenvectors."""
        rng = np.random.default_rng(seed)
        n = len(eigenvalues)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return (u * np.asarray(eigenvalues, float)) @ u.conj().T

    def test_diagonal_operator(self):
        d = np.array([3.0, 1.0])
        lam, v = lanczos_top(lambda z: d * z, 2, max_steps=50, seed=0)
        assert lam == pytest.approx(3.0, rel=1e-14)
        assert abs(abs(v[0]) - 1.0) < 1e-14 and abs(v[1]) < 1e-14

    @pytest.mark.parametrize("eigenvalues", [
        [4.0, 2.0, 1.0, 0.5, 0.25, 0.1],
        # the canonical DFT's eigengap: lambda_2 / lambda_1 = 0.97
        [1.0, 0.97, *np.linspace(0.95, 0.0, 198)],
        [1.0, 0.97, *np.random.default_rng(8).random(398) * 0.96],
    ], ids=["separated", "gap-0.97-even", "gap-0.97-random"])
    def test_known_spectrum(self, eigenvalues):
        h = self.hermitian(eigenvalues, seed=5)
        op, inputs = self.counted(h)
        lam, v = lanczos_top(op, len(eigenvalues), max_steps=300, seed=3)
        w, u = np.linalg.eigh(h)
        assert lam == pytest.approx(w[-1], rel=1e-14)
        assert np.linalg.norm(h @ v - lam * v) <= 1e-13 * lam
        assert 1.0 - abs(np.vdot(u[:, -1], v)) <= 1e-13
        # the first pass stopped at a test, k steps; the second reran k - 1
        k = (len(inputs) + 1) // 2
        assert len(inputs) == 2 * k - 1 and k % numerics.LANCZOS_CHECK_EVERY == 0
        assert k < 300

    def test_second_pass_reruns_the_first_bit_for_bit(self):
        h = self.hermitian([1.0, 0.97, *np.linspace(0.95, 0.0, 58)], seed=2)
        op, inputs = self.counted(h)
        lanczos_top(op, 60, max_steps=300, seed=4)
        k = (len(inputs) + 1) // 2
        first, second = inputs[:k], inputs[k:]
        assert len(second) == k - 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))

    def test_result_is_independent_of_a_cap_it_stops_below(self):
        h = self.hermitian([1.0, 0.97, *np.linspace(0.95, 0.0, 58)], seed=2)
        lam, v = lanczos_top(lambda z: h @ z, 60, max_steps=300, seed=4)
        lam_big, v_big = lanczos_top(lambda z: h @ z, 60, max_steps=1000, seed=4)
        assert lam == lam_big and v.tobytes() == v_big.tobytes()

    def test_zero_operator_returns_its_start(self):
        op, inputs = self.counted(np.zeros((4, 4)))
        lam, v = lanczos_top(op, 4, max_steps=10, seed=0)
        assert len(inputs) == 1 and lam == 0.0
        assert v.tobytes() == random_unit_start(4, 0).tobytes()

    def test_no_steps_return_the_start(self):
        op, inputs = self.counted(np.eye(4))
        lam, v = lanczos_top(op, 4, max_steps=0, seed=7)
        assert not inputs and lam == 0.0
        assert v.tobytes() == random_unit_start(4, 7).tobytes()

    def test_an_eigenvector_start_returns_itself(self):
        op, inputs = self.counted(2.0 * np.eye(5))
        lam, v = lanczos_top(op, 5, max_steps=10, seed=1)
        assert len(inputs) == 1 and lam == 2.0
        assert v.tobytes() == random_unit_start(5, 1).tobytes()

    @pytest.mark.parametrize("eigenvalues, steps", [
        ([3.0, 2.0, 1.5, 1.0, 0.5, 0.2], 6),
        # rank 2: the start's two eigen-directions and its null-space part
        ([2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3),
    ], ids=["full-rank", "rank-2"])
    def test_breakdown_below_the_cap_returns_the_exact_pair(self, eigenvalues, steps):
        n = len(eigenvalues)
        h = self.hermitian(eigenvalues, seed=9)
        op, inputs = self.counted(h)
        lam, v = lanczos_top(op, n, max_steps=50, seed=2)
        # the Krylov space is invariant after `steps` steps, and beta there is
        # rounding: the pass stops at once, between two tests
        assert len(inputs) == 2 * steps - 1
        w, u = np.linalg.eigh(h)
        assert lam == pytest.approx(w[-1], rel=1e-14)
        assert np.linalg.norm(h @ v - lam * v) <= 1e-14 * lam
        assert 1.0 - abs(np.vdot(u[:, -1], v)) <= 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_phase_is_the_power_methods(self, seed):
        h = self.hermitian([4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05, 0.0], seed=seed)
        lam, v = lanczos_top(lambda z: h @ z, 8, max_steps=50, seed=seed)
        c = np.vdot(v, random_unit_start(8, seed))
        assert c.real > 0.0 and abs(c.imag) <= 1e-15 * c.real
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        ref = power_iterate(lambda z: h @ z, 8, 200, seed)
        assert np.linalg.norm(v - ref) <= 1e-13

    def test_capped_before_convergence_returns_its_ritz_pair(self):
        h = self.hermitian([1.0, 0.97, *np.linspace(0.95, 0.0, 98)], seed=1)
        op, inputs = self.counted(h)
        lam, v = lanczos_top(op, 100, max_steps=10, seed=0)
        assert len(inputs) == 2 * 10 - 1
        # a Ritz pair: its value is the unit vector's Rayleigh quotient
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert real_dot(v, h @ v) == pytest.approx(lam, rel=1e-13)
        assert 0.9 < lam < 1.0


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

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("iters, tol", [(3, 1e-9), (40, 1e-9), (40, 0.0)])
    def test_without_a_preconditioner_bit_identical_to_plain_cg(self, real, iters, tol):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((20, 12)) + (0.0 if real else 1j * rng.standard_normal((20, 12)))
        h = a.conj().T @ a
        rhs = rng.standard_normal(12) + (0.0 if real else 1j * rng.standard_normal(12))
        x = cg_solve(lambda z: h @ z, rhs, iters, tol)
        assert x.tobytes() == cg_plain(lambda z: h @ z, rhs, iters, tol).tobytes()

    def test_preconditioned_stop_reads_the_unpreconditioned_residual(self):
        # M^{-1} = 1e-30 I makes r'z tiny from the start; the stop test on
        # ||r|| still runs CG to the tolerance
        d = np.linspace(1.0, 5.0, 8)
        rhs = np.ones(8)
        x = cg_solve(lambda z: d * z, rhs, 50, 1e-10, precond=lambda z: 1e-30 * z)
        assert np.linalg.norm(d * x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_exact_preconditioner_solves_in_one_product(self):
        rng = np.random.default_rng(7)
        d = np.exp(rng.uniform(-6.0, 6.0, 50))
        rhs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        calls = []

        def op(z):
            calls.append(1)
            return d * z
        x = cg_solve(op, rhs, 50, 1e-12, precond=lambda z: z / d)
        assert len(calls) == 1
        assert np.linalg.norm(d * x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        plain = []
        cg_solve(lambda z: plain.append(1) or d * z, rhs, 50, 1e-12)
        assert len(plain) == 50

    def test_zero_preconditioned_residual_stops_without_dividing(self):
        # an unknown the preconditioner zeroes (an uncovered one) holds the
        # whole residual: no step is taken, and nothing divides by 0
        with np.errstate(all="raise"):
            x = cg_solve(lambda z: 2.0 * z, np.array([0.0, 1.0]), 10, 1e-9,
                         precond=lambda z: np.array([1.0, 0.0]) * z)
        assert np.all(x == 0)


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
