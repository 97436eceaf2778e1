"""Exact multivariate polynomials with per-variable degree at most 2.

A term's exponent vector is a pair of bit-sets (linear part, squared part);
coefficients are exact rationals (python ints or Fractions).  This is enough
to hold basis generating polynomials and their Rayleigh and c-Rayleigh
differences, which :func:`rayleigh_diff` builds in one pass over the terms;
BoundedPoly itself has no arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .core import Matroid, elements, set_of

Rational = int | Fraction

TermKey = tuple[int, int]  # (linear mask, squared mask), disjoint


def _norm(c: Rational) -> Rational:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class BoundedPoly:
    """Immutable sparse polynomial, per-variable degree <= 2, exact coefficients.

    The constructor validates and normalises each term; ``_trusted`` keeps
    terms that are valid by construction (disjoint masks within the n
    variables, nonzero coefficients, no Fraction of denominator 1) unchecked."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[TermKey, Rational] | None = None):
        self.n = n
        clean: dict[TermKey, Rational] = {}
        if terms:
            full = (1 << n) - 1
            for (lin, sq), c in terms.items():
                if lin & sq:
                    raise ValueError("linear and squared masks must be disjoint")
                if (lin | sq) & ~full:
                    raise ValueError("term uses variables beyond n")
                c = _norm(c)
                if c != 0:
                    clean[(lin, sq)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, terms: dict[TermKey, Rational]) -> "BoundedPoly":
        p = object.__new__(cls)
        p.n, p.terms = n, terms
        return p

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_multiaffine(self) -> bool:
        return all(sq == 0 for (_, sq) in self.terms)

    def active_vars(self) -> frozenset[int]:
        m = 0
        for (lin, sq) in self.terms:
            m |= lin | sq
        return set_of(m)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoundedPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"BoundedPoly(n={self.n}, terms={len(self.terms)})"

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence[Rational]) -> Rational:
        if len(point) != self.n:
            raise ValueError(f"point must have {self.n} coordinates")
        total: Rational = 0
        for (lin, sq), c in self.terms.items():
            v = c
            for e in elements(lin):
                v *= point[e - 1]
            for e in elements(sq):
                v *= point[e - 1] * point[e - 1]
            total += v
        return _norm(total)


# ---------------------------------------------------------------------------
# module-level operation names


def basis_poly(M: Matroid) -> BoundedPoly:
    """The basis generating polynomial: one unit monomial per basis, built
    trusted, since a Matroid's basis masks are distinct and within its n."""
    return BoundedPoly._trusted(M.n, {(B, 0): 1 for B in M.basis_masks})


def _check_pair(f: BoundedPoly, i: int, j: int) -> None:
    if not (1 <= i <= f.n and 1 <= j <= f.n) or i == j:
        raise ValueError(f"need two distinct variables of 1..{f.n}, got {i} and {j}")


def pair_decomposition(
    f: BoundedPoly, i: int, j: int
) -> tuple[BoundedPoly, BoundedPoly, BoundedPoly, BoundedPoly]:
    """Write f = x_i x_j f_ij + x_i f_i + x_j f_j + f_0 (f multi-affine in i, j).
    Stripping x_i and x_j is one-to-one on each part's terms, so the parts
    are built trusted."""
    _check_pair(f, i, j)
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    parts: list[dict[TermKey, Rational]] = [{}, {}, {}, {}]
    for (lin, sq), c in f.terms.items():
        if sq & (bi | bj):
            raise ValueError("f must be multi-affine in the chosen pair")
        parts[2 * (not lin & bi) + (not lin & bj)][lin & ~(bi | bj), sq] = c
    return tuple(BoundedPoly._trusted(f.n, p) for p in parts)  # type: ignore[return-value]


def rayleigh_diff(f: BoundedPoly, i: int, j: int, c: Rational = 1) -> BoundedPoly:
    """c * d_i f * d_j f - d_i d_j f * f, for multi-affine f and distinct i, j
    in 1..n: the c-Rayleigh difference of Huh, Schroter and Wang, where c >= 1
    asks for less than the Rayleigh property and c = 1 is the Rayleigh
    difference.

    With f = x_i x_j f_ij + x_i f_i + x_j f_j + f_0 (see
    :func:`pair_decomposition`) it is c * (f_i*f_j - f_ij*f_0) +
    (c - 1) * f_ij*f, which at c = 1 involves neither x_i nor x_j.  One pass
    splits f's terms; the products accumulate as given, f_i*f_j - f_ij*f_0 in
    one dict and f_ij*f in another, and each key is scaled once.  The result
    is built trusted once zeros are dropped and coefficients normalised."""
    _check_pair(f, i, j)
    if not f.is_multiaffine:
        raise ValueError("Rayleigh difference needs a multi-affine polynomial")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    keep = ~(bi | bj)
    f_ij, f_i, f_j, f_0 = parts = ([], [], [], [])
    for (lin, _), coeff in f.terms.items():
        parts[2 * (not lin & bi) + (not lin & bj)].append((lin & keep, coeff))
    out: dict[TermKey, Rational] = {}
    extra: dict[TermKey, Rational] = {}
    products = [(1, f_i, f_j, out), (-1, f_ij, f_0, out)]
    if c != 1:
        products.append((1, f_ij, [(lin, coeff) for (lin, _), coeff in f.terms.items()], extra))
    for sign, left, right, acc in products:
        for l1, c1 in left:
            for l2, c2 in right:
                key = (l1 ^ l2, l1 & l2)
                acc[key] = acc.get(key, 0) + sign * c1 * c2
    if c != 1:
        # c = a/b times the Rayleigh difference's terms, then f_ij*f's new ones
        a, b = Fraction(c).as_integer_ratio()
        keys = [k for k, v in out.items() if v] + [
            k for k, v in extra.items() if v and not out.get(k)]
        out = {k: Fraction(a * out.get(k, 0) + (a - b) * extra.get(k, 0), b) for k in keys}
    return BoundedPoly._trusted(f.n, {k: _norm(v) for k, v in out.items() if v != 0})
