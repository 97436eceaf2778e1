"""Exact multivariate polynomials with per-variable degree at most 2.

A term's exponent vector is a pair of bit-sets (linear part, squared part);
coefficients are exact rationals (python ints or Fractions).  This is enough
to hold basis-generating polynomials, matching polynomials, and products of
two multi-affine polynomials such as Rayleigh differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .core import Matroid, elements, mask_of, set_of
from .constructions import MultiGraph, _graph_components
from .errors import (
    DegreeOverflow,
    LoopPresent,
    NotAProbabilityPolynomial,
    NotBipartite,
)
from . import verdicts
from .verdicts import Verdict, Witness

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

    def assign(self, values: Mapping[int, Rational]) -> "BoundedPoly":
        """Substitute exact values for some variables."""
        vmask = mask_of(values.keys())
        out: dict[TermKey, Rational] = {}
        for (lin, sq), c in self.terms.items():
            v = c
            for e in elements(lin & vmask):
                v *= values[e]
            for e in elements(sq & vmask):
                v *= values[e] * values[e]
            if v == 0:
                continue
            key = (lin & ~vmask, sq & ~vmask)
            out[key] = out.get(key, 0) + v
        return BoundedPoly(self.n, out)


# ---------------------------------------------------------------------------
# module-level operation names


def basis_poly(M: Matroid) -> BoundedPoly:
    """The basis generating polynomial: one unit monomial per basis, built
    trusted, since a Matroid's basis masks are distinct and within its n."""
    return BoundedPoly._trusted(M.n, {(B, 0): 1 for B in M.basis_masks})


def pair_decomposition(
    f: BoundedPoly, i: int, j: int
) -> tuple[BoundedPoly, BoundedPoly, BoundedPoly, BoundedPoly]:
    """Write f = x_i x_j f_ij + x_i f_i + x_j f_j + f_0 (f multi-affine in i, j).
    Stripping x_i and x_j is one-to-one on each part's terms, so the parts
    are built trusted."""
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
    if not (1 <= i <= f.n and 1 <= j <= f.n) or i == j:
        raise ValueError(f"need two distinct variables of 1..{f.n}, got {i} and {j}")
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


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class Measure:
    """Probability measure on subsets of [n]; weights are exact nonnegative
    rationals summing to one, keyed by subset bit-mask."""

    n: int
    weights: dict[int, Fraction]

    def __post_init__(self):
        total = Fraction(0)
        full = (1 << self.n) - 1
        for mask, w in self.weights.items():
            if mask & ~full:
                raise ValueError("weight on a subset outside the ground set")
            if w < 0:
                raise ValueError("negative weight")
            total += w
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")

    def weight(self, mask: int) -> Fraction:
        return self.weights.get(mask, Fraction(0))

    @classmethod
    def uniform_on_bases(cls, M: Matroid) -> "Measure":
        w = Fraction(1, len(M.basis_masks))
        return cls(M.n, {B: w for B in M.basis_masks})


def generating_poly(mu: Measure) -> BoundedPoly:
    return BoundedPoly(mu.n, {(mask, 0): w for mask, w in mu.weights.items()})


def measure_from_poly(f: BoundedPoly) -> Measure:
    if not f.is_multiaffine:
        raise NotAProbabilityPolynomial("not multi-affine")
    weights: dict[int, Fraction] = {}
    total = Fraction(0)
    for (lin, _), c in f.terms.items():
        if c < 0:
            raise NotAProbabilityPolynomial("negative coefficient")
        weights[lin] = Fraction(c)
        total += c
    if total != 1:
        raise NotAProbabilityPolynomial(f"f(1) = {total} != 1")
    return Measure(f.n, weights)


def nlc_check(mu: Measure) -> Verdict:
    """Negative lattice condition: mu(S)mu(T) >= mu(SuT)mu(SnT) for all S, T.

    A violation needs both the union and the intersection in the support, so
    only support pairs are scanned.
    """
    if mu.n > 12:
        raise ValueError("NLC scan capped at n = 12")
    support = sorted(m for m, w in mu.weights.items() if w > 0)
    wt = mu.weights
    for U in support:
        for I in support:
            if I & ~U:
                continue
            diff = U & ~I
            # S = I u X, T = I u (diff \ X) over halvings X of the difference
            X = diff
            while True:
                S = I | X
                T = I | (diff ^ X)
                lhs = wt.get(S, Fraction(0)) * wt.get(T, Fraction(0))
                rhs = wt[U] * wt[I]
                if lhs < rhs:
                    return verdicts.fails(
                        Witness(
                            value=lhs - rhs,
                            extra={"S": sorted(set_of(S)), "T": sorted(set_of(T))},
                        ),
                        property="nlc",
                    )
                if X == 0:
                    break
                X = (X - 1) & diff
    return verdicts.holds(verdicts.ALL_ONES_EXACT, property="nlc")


# ---------------------------------------------------------------------------
# matching polynomials


@dataclass(frozen=True)
class EdgeWeights:
    """Nonnegative rational weight per edge index."""

    weights: dict[int, Rational]

    def __post_init__(self):
        for e, w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight on edge {e}")

    def __getitem__(self, e: int) -> Rational:
        return self.weights.get(e, 1)

    @classmethod
    def ones(cls) -> "EdgeWeights":
        return cls({})


def _all_matchings(G: MultiGraph):
    """Yield (edge-id tuple, matched-vertex mask) for every matching of G."""
    edges = G.edges

    def rec(idx: int, used: int, chosen: tuple[int, ...]):
        if idx == len(edges):
            yield chosen, used
            return
        a, b = edges[idx]
        yield from rec(idx + 1, used, chosen)
        abit, bbit = 1 << (a - 1), 1 << (b - 1)
        if not (used & (abit | bbit)):
            yield from rec(idx + 1, used | abit | bbit, chosen + (idx + 1,))

    yield from rec(0, 0, ())


def _weight_product(chosen: Iterable[int], lam: EdgeWeights) -> Rational:
    w: Rational = 1
    for e in chosen:
        w *= lam[e]
    return w


def matching_poly(G: MultiGraph, lam: Optional[EdgeWeights] = None) -> BoundedPoly:
    """Sum over matchings of prod lambda_e x_i x_j; variables are vertices."""
    if G.has_loop():
        raise LoopPresent("matching polynomials need a loopless graph")
    lam = lam or EdgeWeights.ones()
    terms: dict[TermKey, Rational] = {}
    for chosen, used in _all_matchings(G):
        key = (used, 0)
        terms[key] = terms.get(key, 0) + _weight_product(chosen, lam)
    return BoundedPoly(G.v, terms)


def complementary_matching_poly(
    G: MultiGraph, lam: Optional[EdgeWeights] = None
) -> BoundedPoly:
    """x^V M_G(1/x; lambda): each matching contributes x^(unmatched vertices)."""
    if G.has_loop():
        raise LoopPresent("matching polynomials need a loopless graph")
    lam = lam or EdgeWeights.ones()
    full = (1 << G.v) - 1
    terms: dict[TermKey, Rational] = {}
    for chosen, used in _all_matchings(G):
        key = (full ^ used, 0)
        terms[key] = terms.get(key, 0) + _weight_product(chosen, lam)
    return BoundedPoly(G.v, terms)


def _check_bipartition(G: MultiGraph, A: Iterable[int]) -> int:
    amask = mask_of(A)
    for (a, b) in G.edges:
        ina = bool(amask & (1 << (a - 1)))
        inb = bool(amask & (1 << (b - 1)))
        if ina == inb:
            raise NotBipartite(f"edge ({a},{b}) does not cross the bipartition")
    return amask


def restricted_matching_poly(
    G: MultiGraph, A: Iterable[int], lam: Optional[EdgeWeights] = None
) -> BoundedPoly:
    """M_G with the non-A vertex variables set to one."""
    amask = _check_bipartition(G, A)
    f = matching_poly(G, lam)
    others = set_of(((1 << G.v) - 1) ^ amask)
    return f.assign({v: 1 for v in others})


def c_weights(
    G: MultiGraph, A: Iterable[int], lam: Optional[EdgeWeights] = None
) -> dict[int, Rational]:
    """c(S; lambda): summed matching weights grouped by the matched A-subset S.

    Keys are bit-masks over the vertex space; the support is exactly the set
    of independent sets of the transversal matroid of (G, A).
    """
    amask = _check_bipartition(G, A)
    lam = lam or EdgeWeights.ones()
    out: dict[int, Rational] = {}
    for chosen, used in _all_matchings(G):
        S = used & amask
        out[S] = out.get(S, 0) + _weight_product(chosen, lam)
    return {S: _norm(w) for S, w in out.items() if w != 0}


# ---------------------------------------------------------------------------
# determinantal representation for graphic matroids


def determinantal_rep_graphic(G: MultiGraph) -> list[list[int]]:
    """Signed incidence columns, one per edge, with one vertex row removed per
    connected component.  By Cauchy-Binet, det(sum_e x_e a_e a_e^T) equals the
    spanning-forest generating polynomial of G."""
    if G.has_loop():
        raise LoopPresent("determinantal representation needs a loopless graph")
    dropped = {max(verts) for verts, _ in _graph_components(G, range(1, G.e + 1))}
    rows = [v for v in range(1, G.v + 1) if v not in dropped]
    row_index = {v: i for i, v in enumerate(rows)}
    vecs = []
    for (a, b) in G.edges:
        col = [0] * len(rows)
        if a in row_index:
            col[row_index[a]] += 1
        if b in row_index:
            col[row_index[b]] -= 1
        vecs.append(col)
    return vecs
