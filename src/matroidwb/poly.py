"""Exact multivariate polynomials with per-variable degree at most 2.

A term's exponent vector is a pair of bit-sets (linear part, squared part);
coefficients are exact rationals (python ints or Fractions).  This is enough
to hold basis generating polynomials and products of two multi-affine
polynomials such as their Rayleigh and c-Rayleigh differences.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .core import Matroid, elements, set_of
from .errors import DegreeOverflow

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

    @classmethod
    def zero(cls, n: int) -> "BoundedPoly":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: Rational) -> "BoundedPoly":
        return cls(n, {(0, 0): c})

    @classmethod
    def variable(cls, n: int, i: int) -> "BoundedPoly":
        return cls(n, {(1 << (i - 1), 0): 1})

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

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BoundedPoly") -> "BoundedPoly":
        self._check_same_space(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BoundedPoly(self.n, out)

    def __sub__(self, other: "BoundedPoly") -> "BoundedPoly":
        return self + (-other)

    def __neg__(self) -> "BoundedPoly":
        return BoundedPoly(self.n, {k: -c for k, c in self.terms.items()})

    def scale(self, c: Rational) -> "BoundedPoly":
        return BoundedPoly(self.n, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same_space(other)
        out: dict[TermKey, Rational] = {}
        for (l1, s1), c1 in self.terms.items():
            for (l2, s2), c2 in other.terms.items():
                if (s1 & s2) | (s1 & l2) | (s2 & l1):
                    raise DegreeOverflow("product exceeds per-variable degree 2")
                sq = s1 | s2 | (l1 & l2)
                lin = l1 ^ l2
                key = (lin, sq)
                out[key] = out.get(key, 0) + c1 * c2
        return BoundedPoly(self.n, out)

    __rmul__ = __mul__

    def _check_same_space(self, other: "BoundedPoly"):
        if self.n != other.n:
            raise ValueError("polynomials live in different variable spaces")

    # -- calculus / evaluation ------------------------------------------------

    def derivative(self, i: int) -> "BoundedPoly":
        bit = 1 << (i - 1)
        out: dict[TermKey, Rational] = {}
        for (lin, sq), c in self.terms.items():
            if lin & bit:
                key = (lin ^ bit, sq)
                out[key] = out.get(key, 0) + c
            elif sq & bit:
                key = (lin | bit, sq ^ bit)
                out[key] = out.get(key, 0) + 2 * c
        return BoundedPoly(self.n, out)

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


def rayleigh_diff(f: BoundedPoly, i: int, j: int) -> BoundedPoly:
    """d_i f * d_j f - d_i d_j f * f, for multi-affine f and distinct i, j in
    1..n, as f_i*f_j - f_ij*f_0 (see :func:`pair_decomposition`): one pass
    splits f's terms, both products accumulate in one dict in that order, and
    the result is built trusted once zeros are dropped and coefficients
    normalised.  It involves neither x_i nor x_j."""
    _check_pair(f, i, j)
    if not f.is_multiaffine:
        raise ValueError("Rayleigh difference needs a multi-affine polynomial")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    keep = ~(bi | bj)
    f_ij, f_i, f_j, f_0 = parts = ([], [], [], [])
    for (lin, _), c in f.terms.items():
        parts[2 * (not lin & bi) + (not lin & bj)].append((lin & keep, c))
    out: dict[TermKey, Rational] = {}
    for sign, left, right in ((1, f_i, f_j), (-1, f_ij, f_0)):
        for l1, c1 in left:
            for l2, c2 in right:
                key = (l1 ^ l2, l1 & l2)
                out[key] = out.get(key, 0) + sign * c1 * c2
    return BoundedPoly._trusted(f.n, {k: _norm(c) for k, c in out.items() if c != 0})


def c_rayleigh_diff(f: BoundedPoly, i: int, j: int, c: Rational) -> BoundedPoly:
    """c * d_i f * d_j f - d_i d_j f * f for multi-affine f (the c-Rayleigh
    difference of Huh, Schroter and Wang), as c times the Rayleigh difference
    plus (c - 1) * f_ij * f, since d_i d_j f = f_ij.  c >= 1 asks for less
    than the Rayleigh property, and c = 1 is the Rayleigh difference.

    Unlike the c=1 case this still involves x_i and x_j (linearly).
    """
    c = Fraction(c)
    diff = rayleigh_diff(f, i, j)
    f_ij = pair_decomposition(f, i, j)[0]
    return diff.scale(c) + (f_ij * f).scale(c - 1)
