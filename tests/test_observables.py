import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctx.observables import Observable, ParseError, parse_polynomial


def random_polynomial(rng, dim, max_degree=6, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        alpha = tuple(int(a) for a in rng.integers(0, max_degree // dim + 1, size=dim))
        if sum(alpha) > max_degree:
            continue
        terms[alpha] = float(rng.uniform(-2, 2))
    if not terms:
        terms[(0,) * dim] = 1.0
    return Observable(terms, dim)


class TestEval:
    def test_coordinate_projection(self):
        F = parse_polynomial("x1", 2)
        assert F.eval(np.array([3.0, 5.0])) == 3.0

    def test_square(self):
        F = parse_polynomial("x1^2", 1)
        assert F.eval(np.array([1.0])) == 1.0

    def test_mixed_monomial(self):
        F = parse_polynomial("x1^2*x2", 2)
        assert F.eval(np.array([2.0, 3.0])) == 12.0

    def test_eval_batch_matches_eval(self):
        rng = np.random.default_rng(3)
        F = random_polynomial(rng, 3)
        xs = rng.standard_normal((40, 3))
        batch = F.eval_batch(xs)
        for i in range(40):
            assert batch[i] == pytest.approx(F.eval(xs[i]), rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        F = parse_polynomial("x1", 2)
        with pytest.raises(ValueError):
            F.eval(np.array([1.0, 2.0, 3.0]))


class TestDerivatives:
    def test_linear_first_derivative(self):
        F = parse_polynomial("x1", 3)
        x = np.array([0.2, 0.4, -1.0])
        v = np.array([5.0, 1.0, 2.0])
        assert F.apply_derivative(1, x, [v]) == 5.0

    def test_linear_second_derivative_vanishes(self):
        F = parse_polynomial("x1", 2)
        x = np.array([1.0, 2.0])
        assert F.apply_derivative(2, x, [x, x]) == 0.0

    def test_square_second_derivative(self):
        F = parse_polynomial("x1^2", 1)
        v, w = np.array([3.0]), np.array([-2.0])
        assert F.apply_derivative(2, np.array([1.0]), [v, w]) == pytest.approx(-12.0)

    def test_symmetry_under_permutation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            F = random_polynomial(rng, 2)
            x = rng.standard_normal(2)
            vs = [rng.standard_normal(2) for _ in range(3)]
            base = F.apply_derivative(3, x, vs)
            perm = list(rng.permutation(3))
            shuffled = F.apply_derivative(3, x, [vs[p] for p in perm])
            assert shuffled == pytest.approx(base, rel=1e-10, abs=1e-10)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(23)
        h = 1e-4
        for _ in range(8):
            d = int(rng.integers(1, 4))
            F = random_polynomial(rng, d)
            x = rng.uniform(-1, 1, size=d)
            v = rng.uniform(-1, 1, size=d)
            # first order: central difference along v
            fd1 = (F.eval(x + h * v) - F.eval(x - h * v)) / (2 * h)
            assert F.apply_derivative(1, x, [v]) == pytest.approx(fd1, abs=1e-5)
            # second order along (v, v)
            fd2 = (F.eval(x + h * v) - 2 * F.eval(x) + F.eval(x - h * v)) / h ** 2
            assert F.apply_derivative(2, x, [v, v]) == pytest.approx(fd2, abs=1e-5)

    def test_directional_taylor_coefficients(self):
        # apply_derivative with all slots = v equals i! times the t^i
        # coefficient of F(x + t v) (exact polynomial identity)
        rng = np.random.default_rng(29)
        for _ in range(8):
            d = int(rng.integers(1, 4))
            F = random_polynomial(rng, d)
            x = rng.uniform(-1, 1, size=d)
            v = rng.uniform(-1, 1, size=d)
            deg = F.max_degree
            ts = np.linspace(-1, 1, deg + 1)
            vals = [F.eval(x + t * v) for t in ts]
            coeffs = np.polynomial.polynomial.polyfit(ts, vals, deg)
            for i in range(1, min(deg, 3) + 1):
                got = F.apply_derivative(i, x, [v] * i)
                fact = 1
                for j in range(1, i + 1):
                    fact *= j
                assert got == pytest.approx(fact * coeffs[i], rel=1e-8, abs=1e-8)

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(31)
        F = random_polynomial(rng, 2)
        xs = rng.standard_normal((15, 2))
        vs = [rng.standard_normal((15, 2)) for _ in range(2)]
        batch = F.apply_derivative_batch(2, xs, vs)
        for i in range(15):
            one = F.apply_derivative(2, xs[i], [v[i] for v in vs])
            assert batch[i] == pytest.approx(one, rel=1e-12, abs=1e-12)

    def test_high_order_vanishes(self):
        F = parse_polynomial("x1^4", 1)
        assert F.partial((0,) * 5).eval(np.array([0.3])) == 0.0

    def test_scalar_derivative_values(self):
        F = parse_polynomial("x1^2", 1)
        assert F.partial((0,)).eval(np.array([1.0])) == 2.0
        assert F.partial((0,)).eval(np.array([-1.0])) == -2.0
        assert F.scalar_derivative_exact(2, 1) == Fraction(2)


class TestMemoization:
    def test_partial_is_cached(self):
        F = parse_polynomial("x1^3*x2", 2)
        a = F.partial((0, 0, 1))
        b = F.partial((1, 0, 0))  # same sorted key
        assert a is b

    def test_concurrent_readers(self):
        F = random_polynomial(np.random.default_rng(37), 3)
        results = []

        def work():
            for idx in np.ndindex(3, 3):
                results.append(F.partial(tuple(idx)))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # same key always resolves to the same cached object
        assert F.partial((0, 1)) is F.partial((1, 0))


class TestParser:
    def test_basic_forms(self):
        assert parse_polynomial("x2", 2).terms == {(0, 1): 1.0}
        assert parse_polynomial("-x1^3", 1).terms == {(3,): -1.0}
        assert parse_polynomial("2.5*x1*x2^2", 2).terms == {(1, 2): 2.5}

    def test_whitespace_insensitive(self):
        a = parse_polynomial("x1^2 - 2*x1 + 1", 1)
        b = parse_polynomial("x1^2-2*x1+1", 1)
        assert a.terms == b.terms

    def test_like_terms_collect(self):
        F = parse_polynomial("x1 + x1", 1)
        assert F.terms == {(1,): 2.0}

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x1 + $", 1)
        assert err.value.position == 5
        with pytest.raises(ParseError):
            parse_polynomial("x3", 2)
        with pytest.raises(ParseError):
            parse_polynomial("x1 +", 1)
        with pytest.raises(ParseError):
            parse_polynomial("x1^2.5", 1)
        with pytest.raises(ParseError):
            parse_polynomial("", 1)

    @given(st.integers(0, 5), st.integers(0, 5),
           st.floats(-5, 5, allow_nan=False).filter(lambda c: abs(c) > 1e-6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_single_term(self, a1, a2, c):
        text = f"{c!r}*x1^{a1}*x2^{a2}"
        F = parse_polynomial(text, 2)
        assert F.terms == {(a1, a2): c}
