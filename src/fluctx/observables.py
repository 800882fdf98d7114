"""Sparse multivariate polynomial observables with exact derivative tensors.

Observables are polynomials F: R^d -> R stored as a map from exponent
multi-indices to coefficients.  The i-th derivative tensor applied to
vectors (v_1, ..., v_i) is evaluated exactly by symbolic differentiation
of the monomials; per-index partial derivatives are memoized because the
same tensors are reapplied across large Monte Carlo batches.
"""

from __future__ import annotations

import re
from typing import Dict, Sequence, Tuple

import numpy as np

MultiIndex = Tuple[int, ...]


class ParseError(ValueError):
    """Polynomial literal parse failure, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Observable:
    """Sparse polynomial observable.

    terms: {(a_1, ..., a_d): coefficient}; zero coefficients are dropped.
    """

    def __init__(self, terms: Dict[MultiIndex, float], dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for alpha, c in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim:
                raise ValueError(f"multi-index {alpha} does not match dim {dim}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            if c != 0.0:
                clean[alpha] = clean.get(alpha, 0.0) + float(c)
        self.terms = {a: c for a, c in clean.items() if c != 0.0}
        self.dim = dim
        self.max_degree = max((sum(a) for a in self.terms), default=0)
        self._partials: Dict[MultiIndex, "Observable"] = {}

    # -- evaluation -----------------------------------------------------------

    def eval(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of dim {self.dim}, got shape {x.shape}")
        total = 0.0
        for alpha, c in self.terms.items():
            term = c
            for xj, a in zip(x, alpha):
                if a:
                    term *= xj ** a
            total += term
        return total

    def eval_batch(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at many points; x has shape (n, d)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[0])
        for alpha, c in self.terms.items():
            term = np.full(x.shape[0], c)
            for j, a in enumerate(alpha):
                if a:
                    term *= x[:, j] ** a
            out += term
        return out

    # -- derivatives ----------------------------------------------------------

    def partial(self, index: Sequence[int]) -> "Observable":
        """Iterated partial derivative d^k F / dx_{j_1}..dx_{j_k} (0-based j).

        Memoized on the sorted index tuple (partials commute).
        """
        key = tuple(sorted(index))
        cached = self._partials.get(key)
        if cached is not None:
            return cached
        terms: Dict[MultiIndex, float] = {}
        for alpha, c in self.terms.items():
            a = list(alpha)
            coef = c
            ok = True
            for j in key:
                if a[j] == 0:
                    ok = False
                    break
                coef *= a[j]
                a[j] -= 1
            if ok:
                t = tuple(a)
                terms[t] = terms.get(t, 0.0) + coef
        out = Observable(terms, self.dim)
        self._partials[key] = out
        return out

    def apply_derivative(self, order: int, x: np.ndarray, vs: Sequence[np.ndarray]) -> float:
        """D^i F(x)(v_1, ..., v_i), the symmetric i-linear derivative map."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if len(vs) != order:
            raise ValueError(f"need {order} direction vectors, got {len(vs)}")
        x = np.asarray(x, dtype=float)
        vs = [np.asarray(v, dtype=float) for v in vs]
        if x.shape != (self.dim,) or any(v.shape != (self.dim,) for v in vs):
            raise ValueError("dimension mismatch in apply_derivative")
        if order > self.max_degree:
            return 0.0
        total = 0.0
        for idx in np.ndindex(*(self.dim,) * order):
            dF = self.partial(idx)
            if not dF.terms:
                continue
            w = dF.eval(x)
            for v, j in zip(vs, idx):
                w *= v[j]
            total += w
        return total

    def apply_derivative_batch(self, order: int, x: np.ndarray, vs: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized apply_derivative; x and each v have shape (n, d)."""
        if order < 1 or len(vs) != order:
            raise ValueError("bad order / direction count")
        x = np.asarray(x, dtype=float)
        if order > self.max_degree:
            return np.zeros(x.shape[0])
        total = np.zeros(x.shape[0])
        for idx in np.ndindex(*(self.dim,) * order):
            dF = self.partial(idx)
            if not dF.terms:
                continue
            w = dF.eval_batch(x)
            for v, j in zip(vs, idx):
                w = w * v[:, j]
            total += w
        return total

    def scalar_derivative_exact(self, order: int, x: int):
        """F^{(i)}(x) as an exact Fraction for integer x (d = 1)."""
        from fractions import Fraction

        if self.dim != 1:
            raise ValueError("requires dim = 1")
        dF = self.partial((0,) * order) if order else self
        total = Fraction(0)
        for alpha, c in dF.terms.items():
            total += Fraction(c) * Fraction(x) ** alpha[0]
        return total

    def __repr__(self):
        return f"Observable(dim={self.dim}, terms={self.terms!r})"


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?)|(?P<var>x\d+)|(?P<op>[+\-*^]))"
)


def parse_polynomial(text: str, dim: int) -> Observable:
    """Parse a polynomial literal: sum of terms `c * x1^a1 * ... * xd^ad`.

    Whitespace-insensitive; coefficient and exponents optional
    (`x2`, `-x1^3`, `2.5*x1*x2^2` are all valid).  Errors carry the
    character position of the offending token.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if stripped == "":
                break
            at = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    if not tokens:
        raise ParseError("empty polynomial", 0)

    terms: Dict[MultiIndex, float] = {}
    i = 0
    n = len(tokens)

    def var_index(tok, at):
        j = int(tok[1:])
        if not 1 <= j <= dim:
            raise ParseError(f"variable {tok} out of range for dim {dim}", at)
        return j - 1

    while i < n:
        sign = 1.0
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign", tokens[-1][2])
        coeff = sign
        alpha = [0] * dim
        expect_factor = True
        while i < n:
            kind, tok, at = tokens[i]
            if kind == "op" and tok in "+-":
                break
            if kind == "op" and tok == "*":
                if expect_factor:
                    raise ParseError("unexpected '*'", at)
                expect_factor = True
                i += 1
                continue
            if not expect_factor:
                raise ParseError(f"expected '*' or '+'/'-' before {tok!r}", at)
            if kind == "num":
                coeff *= float(tok)
                i += 1
            elif kind == "var":
                j = var_index(tok, at)
                power = 1
                i += 1
                if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        raise ParseError("expected exponent after '^'", at)
                    etok = tokens[i][1]
                    if "." in etok or "e" in etok or "E" in etok:
                        raise ParseError("exponent must be a nonnegative integer", tokens[i][2])
                    power = int(etok)
                    i += 1
                alpha[j] += power
            else:
                raise ParseError(f"unexpected token {tok!r}", at)
            expect_factor = False
        if expect_factor:
            raise ParseError("empty term", tokens[i - 1][2] if i else 0)
        key = tuple(alpha)
        terms[key] = terms.get(key, 0.0) + coeff
    return Observable(terms, dim)
