"""One implementation per primitive, against the implementations it replaced:
the family isomorphism search and fingerprint against the subset-family
search of the sparse-paving enumeration, forests from the component count
against a forest union-find, the transversal rank and basis test from one
augmenting-path routine against two matchers, the c-Rayleigh difference
from the Rayleigh one against the expanded formula, all-pairs negative
correlation from one count of pair degrees against a neg_corr call per pair,
the one-pass Rayleigh difference against BoundedPoly arithmetic over the
pair decomposition, the hoisted min_c_estimate against its per-pair
loop, and the search's term arrays from sos._poly_to_exponents against the
loop over the terms."""
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import xor
from typing import Optional

import numpy as np
import pytest

from matroidwb import verdicts
from matroidwb.analysis import (
    CEstimate,
    _minor_reps,
    _term_arrays,
    c_rayleigh_verdict,
    min_c_estimate,
    neg_corr,
    neg_corr_all_pairs,
    rayleigh_verdict,
)
from matroidwb.classifiers import bicircular_family, lpm_family, sparse_paving_family
from matroidwb.constructions import (
    MultiGraph,
    SetSystem,
    _graph_components,
    bicircular,
    graphic,
    k4,
    named_atlas,
    principal_extension,
    transversal,
    uniform,
)
from matroidwb.core import (
    Matroid,
    contract,
    delete,
    direct_sum,
    elements,
    family_fingerprint,
    family_isomorphism,
    is_isomorphic,
    mask_of,
    popcount,
)
from matroidwb.poly import (
    BoundedPoly,
    basis_poly,
    c_rayleigh_diff,
    pair_decomposition,
    rayleigh_diff,
)
from matroidwb.verdicts import ALL_ONES_EXACT, COEFF_NONNEG

# ---------------------------------------------------------------------------
# reference implementations


def hyperfp(n, H):
    """Degree and pairwise-intersection invariant of a family of subsets."""
    deg = [0] * (n + 1)
    for A in H:
        for e in elements(A):
            deg[e] += 1
    pair = []
    for i in range(len(H)):
        for j in range(i + 1, len(H)):
            pair.append(popcount(H[i] & H[j]))
    return (len(H), tuple(sorted(deg[1:])), tuple(sorted(pair)))


def hyper_iso(n, H1, H2):
    """Backtracking element bijection carrying one subset family onto the
    other, pruned by degrees and by fully mapped members."""
    if len(H1) != len(H2):
        return False
    s2 = set(H2)

    def profile(H):
        deg = {e: 0 for e in range(1, n + 1)}
        for A in H:
            for e in elements(A):
                deg[e] += 1
        return deg

    d1, d2 = profile(H1), profile(H2)
    if sorted(d1.values()) != sorted(d2.values()):
        return False
    order = sorted(range(1, n + 1), key=lambda e: (-d1[e], e))
    cands = {e: [f for f in range(1, n + 1) if d2[f] == d1[e]] for e in order}
    assign = {}
    used = set()

    def img(mask) -> Optional[int]:
        out = 0
        for e in elements(mask):
            if e not in assign:
                return None
            out |= 1 << (assign[e] - 1)
        return out

    def extend(k):
        if k == n:
            return all(img(A) in s2 for A in H1)
        e = order[k]
        for f in cands[e]:
            if f in used:
                continue
            assign[e] = f
            used.add(f)
            if all(img(A) is None or img(A) in s2 for A in H1) and extend(k + 1):
                return True
            del assign[e]
            used.discard(f)
        return False

    return extend(0)


def is_forest(G, edge_ids):
    parent = list(range(G.v + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in edge_ids:
        a, b = G.edges[i - 1]
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def reference_graphic(G):
    rank = G.v - len(_graph_components(G, range(1, G.e + 1)))
    return Matroid(
        G.e, [mask_of(c) for c in combinations(range(1, G.e + 1), rank) if is_forest(G, c)])


def reference_bicircular(G):
    rank = sum(min(ec, len(vs)) for vs, ec in _graph_components(G, range(1, G.e + 1)))
    return Matroid(G.e, [
        mask_of(c) for c in combinations(range(1, G.e + 1), rank)
        if all(ec <= len(vs) for vs, ec in _graph_components(G, c))
    ])


def matchable(items, adj):
    """Whether every item can be matched to a distinct right vertex."""
    match_r = {}

    def augment(x, seen):
        for y in adj[x]:
            if y in seen:
                continue
            seen.add(y)
            if y not in match_r or augment(match_r[y], seen):
                match_r[y] = x
                return True
        return False

    return all(augment(x, set()) for x in items)


def reference_transversal(S):
    """A greedy maximum matching over all elements for the rank, and a
    separate matcher per rank-sized set for the bases."""
    adj = {e: [j for j, A in enumerate(S.family) if e in A] for e in range(1, S.n + 1)}
    match_r = {}

    def augment(x, seen):
        for y in adj[x]:
            if y in seen:
                continue
            seen.add(y)
            if y not in match_r or augment(match_r[y], seen):
                match_r[y] = x
                return True
        return False

    rank = sum(augment(e, set()) for e in range(1, S.n + 1))
    return Matroid(S.n, [
        mask_of(c) for c in combinations(range(1, S.n + 1), rank) if matchable(c, adj)
    ])


def expanded_c_rayleigh_diff(f, i, j, c):
    """c f_i f_j - f_ij f_0 + (c - 1)(x_i x_j f_ij^2 + x_i f_i f_ij + x_j f_j f_ij)."""
    f_ij, f_i, f_j, f_0 = pair_decomposition(f, i, j)
    xi, xj = BoundedPoly.variable(f.n, i), BoundedPoly.variable(f.n, j)
    base = (f_i * f_j).scale(c) - f_ij * f_0
    rest = xi * xj * (f_ij * f_ij) + xi * (f_i * f_ij) + xj * (f_j * f_ij)
    return base + rest.scale(Fraction(c) - 1)


def reference_rayleigh_diff(f, i, j):
    """f_i f_j - f_ij f_0 by BoundedPoly arithmetic over validated copies of
    the four parts."""
    f_ij, f_i, f_j, f_0 = (BoundedPoly(f.n, p.terms) for p in pair_decomposition(f, i, j))
    return f_i * f_j - f_ij * f_0


def per_pair_min_c_estimate(f, samples=120, seed=0):
    """The sampled minimum with a pair decomposition and fresh evaluations of
    f, d_i f and d_j f for every sample and pair."""
    rng = random.Random(seed)
    best = arg_pair = arg_point = None
    pairs = list(combinations(sorted(f.active_vars()), 2))
    if not pairs:
        return CEstimate(None, None, None)
    for _ in range(samples):
        point = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(f.n))
        for (i, j) in pairs:
            f_ij, f_i, f_j, f_0 = pair_decomposition(f, i, j)
            den = f_ij.evaluate(point) * f.evaluate(point)
            if den <= 0:
                continue
            num = f.derivative(i).evaluate(point) * f.derivative(j).evaluate(point)
            ratio = Fraction(num) / Fraction(den)
            if best is None or ratio < best:
                best, arg_pair, arg_point = ratio, (i, j), point
    return CEstimate(best, arg_pair, arg_point)


# binary S8: the identity and the columns 1111, 1101, 1011, 0111 over GF(2);
# a 4-set is a basis when no nonempty subset of its columns sums to zero
S8_COLUMNS = (0b0001, 0b0010, 0b0100, 0b1000, 0b1111, 0b1101, 0b1011, 0b0111)
S8 = Matroid(8, [
    mask_of(S) for S in combinations(range(1, 9), 4)
    if all(reduce(xor, (S8_COLUMNS[e - 1] for e in T))
           for k in range(1, 5) for T in combinations(S, k))
])


def per_pair_neg_corr_all_pairs(M):
    """A neg_corr call per pair, lexicographically, up to the first Fails."""
    for e, f in combinations(range(1, M.n + 1), 2):
        v = neg_corr(M, e, f)
        if not v.holds:
            return v
    return verdicts.holds(ALL_ONES_EXACT, property="negcorr_all_pairs")


def permuted(masks, perm):
    """The image of each mask under element e -> perm[e - 1]."""
    return tuple(mask_of(perm[e - 1] for e in elements(m)) for m in masks)


def canonical_forms(n, families):
    """The lexicographically least sorted image of each family over all n!
    permutations: two families are isomorphic iff their forms are equal."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    weights = np.left_shift(1, perms)  # weights[p, i]: the bit that element i+1 goes to
    forms = []
    for masks in families:
        if not masks:
            forms.append(())
            continue
        bits = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(n)) & 1
        images = np.sort(weights @ bits.T, axis=1)
        forms.append(tuple(images[np.lexsort(images.T[::-1])[0]].tolist()))
    return forms


# ---------------------------------------------------------------------------
# isomorphism and fingerprints


def random_family(rng, n, r, size):
    rsets = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    return tuple(rng.sample(rsets, min(size, len(rsets))))


def test_family_isomorphism_matches_hyper_iso():
    rng = random.Random(17)
    agree = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(4, 8)
        r = rng.randint(1, n - 1)
        A = random_family(rng, n, r, rng.randint(1, 9))
        if rng.random() < 0.5:
            B = permuted(A, rng.sample(range(1, n + 1), n))
        else:
            B = random_family(rng, n, r, len(A))
        mapping = family_isomorphism(n, A, B)
        assert (mapping is not None) == hyper_iso(n, A, B)
        agree[mapping is not None] += 1
        if mapping is not None:
            assert sorted(mapping) == sorted(mapping.values()) == list(range(1, n + 1))
            assert set(permuted(A, [mapping[e] for e in range(1, n + 1)])) == set(B)
            assert family_fingerprint(n, A) == family_fingerprint(n, B)
            assert hyperfp(n, A) == hyperfp(n, B)
    assert min(agree.values()) > 100  # both answers are exercised


def test_family_isomorphism_rejects_unequal_families():
    assert family_isomorphism(4, [0b0011, 0b0101], [0b0011]) is None
    assert family_isomorphism(4, [0b0011, 0b1100], [0b0011, 0b0101]) is None
    assert family_isomorphism(4, [0b0011, 0b0101], [0b1010, 0b1100]) == {1: 4, 2: 2, 3: 3, 4: 1}


def test_equal_pair_degrees_need_the_image_check():
    """The two halves of a Pasch trade cover the same pairs, so with three
    common triples the families agree in every pair degree under the
    identity, yet no permutation carries one onto the other."""
    common = [(1, 2, 5), (1, 2, 6), (1, 3, 6)]
    A = [mask_of(s) for s in [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)] + common]
    B = [mask_of(s) for s in [(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)] + common]
    assert family_fingerprint(6, A) == family_fingerprint(6, B)
    assert not hyper_iso(6, A, B)
    assert family_isomorphism(6, A, B) is None
    forms = canonical_forms(6, [A, B])
    assert forms[0] != forms[1]


def test_fingerprints_are_invariant_under_permutations():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 8)
        A = random_family(rng, n, rng.randint(1, n - 1), rng.randint(1, 9))
        B = permuted(A, rng.sample(range(1, n + 1), n))
        assert family_fingerprint(n, A) == family_fingerprint(n, B)
        assert hyperfp(n, A) == hyperfp(n, B)


@pytest.mark.parametrize("n, r", [(5, 2), (6, 3), (7, 3)])
def test_sparse_paving_representatives_are_pairwise_non_isomorphic(n, r):
    forms = canonical_forms(n, [M.basis_masks for M in sparse_paving_family(n, r)])
    assert len(set(forms)) == len(forms)


@pytest.mark.parametrize("n, r", [(5, 2), (6, 3)])
def test_sparse_paving_family_meets_every_class(n, r):
    """Every non-basis family of r-sets with pairwise symmetric difference at
    least 4 has the non-basis family of some streamed representative as an
    isomorphic copy."""
    rsets = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    families = [()]
    for H in families:  # grows while it is read
        for v in rsets:
            if (not H or v > H[-1]) and all(popcount(v ^ h) >= 4 for h in H):
                families.append(H + (v,))
    streamed = [
        tuple(m for m in rsets if m not in M._basis_set) for M in sparse_paving_family(n, r)
    ]
    assert set(canonical_forms(n, families)) == set(canonical_forms(n, streamed))


def test_bicircular_family_5_is_174_graphs_in_33_classes():
    """The stream is of graphs; the family search groups their matroids into
    33 isomorphism classes, as brute force over all permutations does."""
    matroids = [M for _, M in bicircular_family(5)]
    assert len(matroids) == 174
    buckets: dict = {}
    classes = []
    for M in matroids:
        bucket = buckets.setdefault(family_fingerprint(M.n, M.basis_masks), [])
        if not any(is_isomorphic(M, other) for other in bucket):
            bucket.append(M)
            classes.append(M)
    assert len(classes) == 33
    forms = {(M.n, canonical_forms(M.n, [M.basis_masks])[0]) for M in matroids}
    assert len(forms) == 33


# ---------------------------------------------------------------------------
# graphs


def random_graphs(seed, count=200, max_v=5, max_e=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.randint(1, max_v)
        edges = tuple((rng.randint(1, v), rng.randint(1, v)) for _ in range(rng.randint(0, max_e)))
        out.append(MultiGraph(v=v, edges=edges))
    return out


def test_graphic_matches_forest_union_find():
    for G in random_graphs(41):
        assert graphic(G) == reference_graphic(G)


def test_bicircular_matches_reference():
    for G in random_graphs(43):
        assert bicircular(G) == reference_bicircular(G)


# ---------------------------------------------------------------------------
# bipartite matching


def test_transversal_matches_two_matchers():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(1, 7)
        family = tuple(
            frozenset(e for e in range(1, n + 1) if rng.random() < 0.4)
            for _ in range(rng.randint(1, 5))
        )
        S = SetSystem(n=n, family=family)
        assert transversal(S) == reference_transversal(S)


# ---------------------------------------------------------------------------
# Rayleigh differences

C_VALUES = (1, Fraction(8, 7), Fraction(1, 2), 2, Fraction(3, 5))


def test_c_rayleigh_diff_matches_expanded_formula():
    checked = 0
    for k, (_, M) in enumerate(lpm_family(5)):
        if k % 5 or M.n < 2:
            continue
        f = basis_poly(M)
        for i, j in combinations(range(1, M.n + 1), 2):
            for c in C_VALUES:
                assert c_rayleigh_diff(f, i, j, c) == expanded_c_rayleigh_diff(f, i, j, c)
                checked += 1
    assert checked > 1000


def test_c_rayleigh_diff_is_c_times_the_derivative_product_minus_f_times_the_mixed_one():
    f = basis_poly(graphic(k4()))
    for i, j in combinations(range(1, f.n + 1), 2):
        di, dj = f.derivative(i), f.derivative(j)
        for c in C_VALUES:
            assert c_rayleigh_diff(f, i, j, c) == (di * dj).scale(c) - f * di.derivative(j)


@pytest.mark.parametrize("M", [uniform(2, 3), uniform(2, 4)], ids=["U23", "U24"])
def test_uniform_matroids_are_c_rayleigh_at_eight_sevenths(M):
    v = c_rayleigh_verdict(basis_poly(M), Fraction(8, 7))
    assert v.holds and v.certificate.kind == COEFF_NONNEG


@pytest.mark.parametrize("pair", [(1, 2), None])
def test_c_rayleigh_at_one_is_rayleigh(pair):
    for _, M in lpm_family(4):
        if M.n < 2:
            continue
        f = basis_poly(M)
        v, w = rayleigh_verdict(f, pair, budget=500), c_rayleigh_verdict(f, 1, pair, budget=500)
        assert (v.outcome, v.certificate) == (w.outcome, w.certificate)
        assert w.diagnostics["property"] == "c_rayleigh" and w.diagnostics["c"] == "1"
        rest = {k: x for k, x in w.diagnostics.items() if k not in ("property", "c")}
        assert v.diagnostics == {"property": "rayleigh", **rest}


# ---------------------------------------------------------------------------
# negative correlation of all pairs


def test_neg_corr_all_pairs_matches_the_per_pair_loop_on_random_families():
    """Random families of r-sets, matroids or not, and random minors of the
    census families: the same outcome, pair and witness."""
    rng = random.Random(23)
    pool = [M for _, M in lpm_family(5)] + [M for _, M in bicircular_family(4)]
    pool += list(sparse_paving_family(7, 3))
    outcomes = {"Holds": 0, "Fails": 0}
    for _ in range(400):
        n = rng.randint(2, 8)
        r = rng.randint(1, n - 1)
        M = Matroid(n, random_family(rng, n, r, rng.randint(1, 12)), validate=False)
        v = neg_corr_all_pairs(M)
        assert v == per_pair_neg_corr_all_pairs(M)
        outcomes[v.outcome] += 1
    for _ in range(300):
        M = rng.choice(pool)
        S = rng.sample(range(1, M.n + 1), rng.randint(0, M.n // 2))
        M = (delete if rng.random() < 0.5 else contract)(M, S)
        if rng.random() < 0.3:
            M = direct_sum(M, rng.choice(pool))
        v = neg_corr_all_pairs(M)
        assert v == per_pair_neg_corr_all_pairs(M)
        outcomes[v.outcome] += 1
    assert min(outcomes.values()) > 50


@pytest.mark.parametrize("M", [S8, principal_extension(S8, [1, 2])], ids=["S8", "S8+p12"])
def test_neg_corr_all_pairs_matches_the_per_pair_loop_on_balance_fixtures(M):
    """Every minor representative of the is_balanced Fails fixtures,
    including the ones that fail."""
    failing = 0
    for minor, _, _ in _minor_reps(M):
        v = neg_corr_all_pairs(minor)
        assert v == per_pair_neg_corr_all_pairs(minor)
        failing += v.fails
    assert failing > 0


# ---------------------------------------------------------------------------
# the one-pass Rayleigh difference and the trusted construction

ATLAS = ("BK33", "MK4", "TICTACTOE", "U24", "W3")


def census_and_atlas():
    yield from (M for _, M in lpm_family(5))
    yield from sparse_paving_family(7, 3)
    yield from (M for _, M in bicircular_family(4))
    yield from (named_atlas(name) for name in ATLAS)


def normalised(p):
    """The validated constructor's form: no zero and no integral Fraction."""
    return all(
        c != 0 and not (isinstance(c, Fraction) and c.denominator == 1) for c in p.terms.values()
    )


def typed_terms(p):
    return [(k, type(c), c) for k, c in p.terms.items()]


def test_rayleigh_diff_matches_the_reference_term_for_term_on_basis_polynomials():
    """Same terms in the same order, which _term_arrays hands to the float
    search, with the same coefficient types."""
    checked = 0
    for M in census_and_atlas():
        f = basis_poly(M)
        assert typed_terms(f) == typed_terms(BoundedPoly(M.n, {(B, 0): 1 for B in M.basis_masks}))
        for i, j in combinations(range(1, M.n + 1), 2):
            assert typed_terms(rayleigh_diff(f, i, j)) == typed_terms(reference_rayleigh_diff(f, i, j))
            checked += 1
    assert checked > 2000


def reference_term_arrays(p, var_ids):
    """The search's float arrays from the terms directly, as before they were
    built from sos._poly_to_exponents."""
    idx = {v: k for k, v in enumerate(var_ids)}
    coeffs = np.array([float(c) for c in p.terms.values()])
    exps = np.zeros((len(p.terms), len(var_ids)), dtype=np.int64)
    for t, (lin, sq) in enumerate(p.terms):
        for v in elements(lin):
            exps[t, idx[v]] = 1
        for v in elements(sq):
            exps[t, idx[v]] = 2
    return coeffs, exps


def test_term_arrays_match_the_reference_on_every_rayleigh_difference():
    checked = 0
    for M in census_and_atlas():
        f = basis_poly(M)
        for i, j in combinations(range(1, M.n + 1), 2):
            diff = rayleigh_diff(f, i, j)
            var_ids = tuple(sorted(diff.active_vars()))
            if diff.is_zero() or not var_ids:  # the search never builds arrays for these
                continue
            (coeffs, exps), (ref_coeffs, ref_exps) = (
                _term_arrays(diff, var_ids), reference_term_arrays(diff, var_ids))
            assert exps.dtype == ref_exps.dtype
            assert np.array_equal(coeffs, ref_coeffs) and np.array_equal(exps, ref_exps)
            checked += 1
    assert checked > 900


RANDOM_COEFFS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


def random_multiaffine(rng, coeffs=RANDOM_COEFFS):
    n = rng.randint(2, 5)
    masks = rng.sample(range(1 << n), rng.randint(1, min(12, 1 << n)))
    return BoundedPoly(n, {(m, 0): rng.choice(coeffs) for m in masks})


def test_rayleigh_diff_matches_the_reference_on_random_polynomials_that_cancel():
    """Equal to BoundedPoly arithmetic and to the derivative form, equal and
    hashing alike to a validated copy, with terms cancelling both within one
    product and across the two."""
    rng = random.Random(29)
    cases = cancelled = integral = 0
    for _ in range(1000):
        f = random_multiaffine(rng)
        for i, j in combinations(range(1, f.n + 1), 2):
            d = rayleigh_diff(f, i, j)
            di, dj = f.derivative(i), f.derivative(j)
            assert d == reference_rayleigh_diff(f, i, j) == di * dj - di.derivative(j) * f
            assert normalised(d)
            copy = BoundedPoly(f.n, d.terms)
            assert d == copy and hash(d) == hash(copy)
            f_ij, f_i, f_j, f_0 = pair_decomposition(f, i, j)
            keys = {(l1 ^ l2, l1 & l2) for a, b in ((f_i, f_j), (f_ij, f_0))
                    for (l1, _) in a.terms for (l2, _) in b.terms}
            cases += 1
            cancelled += len(d.terms) < len(keys)
            integral += any(type(c) is int for c in d.terms.values()) and any(
                isinstance(c, Fraction) for c in f.terms.values())
    assert cases > 4000 and cancelled > 200 and integral > 1000


def test_rayleigh_diff_keeps_the_reference_order_when_no_product_cancels():
    """With positive coefficients no term cancels inside a product, and the
    new terms of f_ij*f_0 follow f_i*f_j in the reference's order, which the
    basis polynomials alone do not show: there every term of f_ij*f_0 is
    already a term of f_i*f_j."""
    rng = random.Random(37)
    new_terms = 0
    for _ in range(400):
        f = random_multiaffine(rng, (1, 2, Fraction(1, 2), Fraction(3, 2)))
        for i, j in combinations(range(1, f.n + 1), 2):
            d, ref = rayleigh_diff(f, i, j), reference_rayleigh_diff(f, i, j)
            assert typed_terms(d) == typed_terms(ref)
            f_ij, f_i, f_j, f_0 = pair_decomposition(f, i, j)
            new_terms += len(set(ref.terms) - set((f_i * f_j).terms)) > 1
    assert new_terms > 300


def test_pair_decomposition_parts_are_valid_and_reassemble():
    rng = random.Random(31)
    for _ in range(300):
        f = random_multiaffine(rng)
        i, j = rng.sample(range(1, f.n + 1), 2)
        parts = pair_decomposition(f, i, j)
        for p in parts:
            assert normalised(p) and typed_terms(p) == typed_terms(BoundedPoly(f.n, p.terms))
        xi, xj = BoundedPoly.variable(f.n, i), BoundedPoly.variable(f.n, j)
        f_ij, f_i, f_j, f_0 = parts
        assert xi * xj * f_ij + xi * f_i + xj * f_j + f_0 == f


@pytest.mark.parametrize("name", ATLAS)
def test_min_c_estimate_matches_the_per_pair_loop_on_the_atlas(name):
    f = basis_poly(named_atlas(name))
    samples = 30 if f.n <= 6 else 4
    assert min_c_estimate(f, samples) == per_pair_min_c_estimate(f, samples)


def test_min_c_estimate_matches_the_per_pair_loop_on_lpm5():
    for k, (_, M) in enumerate(lpm_family(5)):
        f = basis_poly(M)
        assert min_c_estimate(f, 6, seed=k) == per_pair_min_c_estimate(f, 6, seed=k)


class CountingTerms(dict):
    """A terms dict that counts the scans of its coefficients."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()


@pytest.mark.parametrize("c", [1, Fraction(8, 7)])
def test_all_pairs_rayleigh_checks_the_coefficients_once(c):
    f = basis_poly(uniform(2, 4))
    f.terms = CountingTerms(f.terms)
    v = c_rayleigh_verdict(f, c) if c != 1 else rayleigh_verdict(f)
    assert v.holds and len(v.certificate.data) == 6 and f.terms.scans == 1


# (rayleigh, c_rayleigh at 8/7) of the all-pairs checks: outcome, certificate
# kind and the pair that did not hold
ALL_PAIRS_ATLAS = {
    "BK33": ("Holds", COEFF_NONNEG, None),
    "MK4": ("Inconclusive", None, (1, 5)),
    "TICTACTOE": ("Holds", COEFF_NONNEG, None),
    "U24": ("Holds", COEFF_NONNEG, None),
    "W3": ("Inconclusive", None, (1, 6)),
}


@pytest.mark.parametrize("name", ATLAS)
def test_all_pairs_rayleigh_outcomes_on_the_atlas(name):
    f = basis_poly(named_atlas(name))
    for v in (rayleigh_verdict(f), c_rayleigh_verdict(f, Fraction(8, 7))):
        kind = v.certificate and v.certificate.kind
        assert (v.outcome, kind, v.diagnostics["pair"]) == ALL_PAIRS_ATLAS[name]


def test_all_pairs_rayleigh_outcomes_on_lpm5():
    for _, M in lpm_family(5):
        f = basis_poly(M)
        for v in (rayleigh_verdict(f), c_rayleigh_verdict(f, Fraction(8, 7))):
            assert v.holds and v.certificate.kind == COEFF_NONNEG
