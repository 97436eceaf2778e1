"""One implementation per primitive, against the implementations it replaced:
the family isomorphism search and fingerprint against the subset-family
search of the sparse-paving enumeration, graphic matroids from the parts
of the vertex set their edges join against a forest union-find (graphs
with loops only and with isolated vertices included), bicircular
matroids from the vertices' incidence sets against a count of edges and
vertices per component, the
transversal rank and basis test from one augmenting-path routine against
two matchers, the c-Rayleigh difference of the one pass against the
expanded formula and against c times the Rayleigh difference plus
(c - 1) f_ij f, all-pairs negative correlation from one count of pair
degrees against a neg_corr call per pair, the one-pass Rayleigh difference
against term-dict arithmetic over the pair decomposition, the search's term
arrays from the term-key masks against the loop over the terms, the integer
Gram elimination against the Fraction LDL^T it replaced, the uniform Gram
over monomial masks against the exponent-vector Gram it replaced, lattice
path matroids from their paths against the transversal route, 2-sums from
minors against the circuit gluing, and the one isomorphism-class stream
against the sparse-paving loop it replaced."""
import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import lcm
from operator import xor
from typing import Optional

import numpy as np
import pytest

from matroidwb import analysis, core, sos, verdicts
from matroidwb.analysis import (
    _minors,
    _term_arrays,
    c_rayleigh_verdict,
    neg_corr,
    neg_corr_all_pairs,
    rayleigh_verdict,
    strong_rayleigh_verdict,
)
from matroidwb.classifiers import bicircular_family, lpm_family, sparse_paving_family
from matroidwb.constructions import (
    MultiGraph,
    SetSystem,
    bicircular,
    graphic,
    k4,
    k33,
    named_atlas,
    principal_extension,
    transversal,
    uniform,
)
from matroidwb.core import (
    FamilyClasses,
    Matroid,
    _squeeze,
    circuits,
    contract,
    delete,
    direct_sum,
    elements,
    family_fingerprint,
    family_isomorphism,
    isomorphism,
    mask_of,
    popcount,
    two_sum,
)
from matroidwb.errors import BasepointIsSeparator
from matroidwb.poly import BoundedPoly, basis_poly, pair_decomposition, rayleigh_diff
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


def components(G, edge_ids):
    """(vertex count, edge count) of each component of the graph on all of
    G's vertices with the edges edge_ids."""
    parent = list(range(G.v + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in edge_ids:
        a, b = G.edges[i - 1]
        parent[find(a)] = find(b)
    verts = Counter(find(x) for x in range(1, G.v + 1))
    edges = Counter(find(G.edges[i - 1][0]) for i in edge_ids)
    return [(verts[root], edges[root]) for root in verts]


def reference_graphic(G):
    rank = G.v - len(components(G, range(1, G.e + 1)))
    return Matroid(
        G.e, [mask_of(c) for c in combinations(range(1, G.e + 1), rank) if is_forest(G, c)])


def reference_bicircular(G):
    """The edge sets with no more edges than vertices in every component."""
    rank = sum(min(ec, vc) for vc, ec in components(G, range(1, G.e + 1)))
    return Matroid(G.e, [
        mask_of(c) for c in combinations(range(1, G.e + 1), rank)
        if all(ec <= vc for vc, ec in components(G, c))
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


# arithmetic over term dicts {(linear mask, squared mask): coefficient}; each
# result drops its zeros and turns integral Fractions into ints, as the
# validated BoundedPoly constructor does


def normal_terms(terms):
    return {
        k: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
        for k, c in terms.items() if c != 0}


def times(p, q):
    """p * q, refusing a variable of degree above 2."""
    out = {}
    for (l1, s1), c1 in p.items():
        for (l2, s2), c2 in q.items():
            if (s1 & s2) | (s1 & l2) | (s2 & l1):
                raise ValueError("product exceeds per-variable degree 2")
            key = (l1 ^ l2, s1 | s2 | (l1 & l2))
            out[key] = out.get(key, 0) + c1 * c2
    return normal_terms(out)


def d_dx(p, i):
    """d p / d x_i."""
    bit = 1 << (i - 1)
    out = {}
    for (lin, sq), c in p.items():
        if lin & bit:
            key = (lin ^ bit, sq)
        elif sq & bit:
            key, c = (lin | bit, sq ^ bit), 2 * c
        else:
            continue
        out[key] = out.get(key, 0) + c
    return normal_terms(out)


def combination(*scaled):
    """a_1 p_1 + a_2 p_2 + ... over (a_k, p_k) pairs, keys in order of first
    appearance."""
    out = {}
    for a, p in scaled:
        for k, c in p.items():
            out[k] = out.get(k, 0) + a * c
    return normal_terms(out)


def expanded_c_rayleigh_diff(f, i, j, c):
    """c f_i f_j - f_ij f_0 + (c - 1)(x_i x_j f_ij^2 + x_i f_i f_ij + x_j f_j f_ij)."""
    f_ij, f_i, f_j, f_0 = (p.terms for p in pair_decomposition(f, i, j))
    xi, xj = {(1 << (i - 1), 0): 1}, {(1 << (j - 1), 0): 1}
    rest = combination(
        (1, times(times(xi, xj), times(f_ij, f_ij))),
        (1, times(xi, times(f_i, f_ij))), (1, times(xj, times(f_j, f_ij))))
    return combination((c, times(f_i, f_j)), (-1, times(f_ij, f_0)), (Fraction(c) - 1, rest))


def derivative_form(f, i, j, c=1):
    """c d_i f d_j f - f d_i d_j f."""
    di, dj = d_dx(f.terms, i), d_dx(f.terms, j)
    return combination((c, times(di, dj)), (-1, times(f.terms, d_dx(di, j))))


def composed_c_rayleigh_diff(f, i, j, c):
    """c times the Rayleigh difference plus (c - 1) f_ij f: both scaled, then
    the second added to the first, so the terms of the first come first."""
    f_ij = pair_decomposition(f, i, j)[0].terms
    c = Fraction(c)
    return combination((c, rayleigh_diff(f, i, j).terms), (c - 1, times(f_ij, f.terms)))


def reference_rayleigh_diff(f, i, j):
    """f_i f_j - f_ij f_0 by term-dict arithmetic over the four parts."""
    f_ij, f_i, f_j, f_0 = (p.terms for p in pair_decomposition(f, i, j))
    return BoundedPoly(f.n, combination((1, times(f_i, f_j)), (-1, times(f_ij, f_0))))


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
    return verdicts.holds(ALL_ONES_EXACT, property="negcorr")


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
        if not any(isomorphism(M, other) is not None for other in bucket):
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


@pytest.fixture(scope="module")
def named_graphs():
    """Every graph of bicircular_family(6) and the graphs of the atlas: K4,
    K3,3 and the 3-whirl's triangle with a loop at each vertex."""
    whirl3 = MultiGraph(v=3, edges=((1, 2), (2, 3), (3, 1), (1, 1), (2, 2), (3, 3)))
    return [G for G, _ in bicircular_family(6)] + [k4(), k33(), whirl3]


# loops only, isolated vertices, no edge at all
SPARSE_GRAPHS = [
    MultiGraph(v=1, edges=((1, 1),)),
    MultiGraph(v=3, edges=((1, 1), (3, 3), (3, 3))),
    MultiGraph(v=4, edges=()),
    MultiGraph(v=5, edges=((2, 4), (4, 2), (4, 4))),
    MultiGraph(v=6, edges=((1, 2), (2, 3), (3, 1), (5, 5))),
]


def test_graphic_matches_forest_union_find(named_graphs):
    for G in random_graphs(41) + named_graphs + SPARSE_GRAPHS:
        assert graphic(G) == reference_graphic(G)
    assert [graphic(G).basis_masks for G in SPARSE_GRAPHS[:3]] == [(0,), (0,), (0,)]


def test_bicircular_matches_reference(named_graphs):
    for G in random_graphs(43) + named_graphs + SPARSE_GRAPHS:
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

C_VALUES = (1, Fraction(8, 7), 2, Fraction(1, 2), 3)


def test_c_rayleigh_diff_matches_expanded_formula():
    checked = 0
    for k, (_, M) in enumerate(lpm_family(5)):
        if k % 5 or M.n < 2:
            continue
        f = basis_poly(M)
        for i, j in combinations(range(1, M.n + 1), 2):
            for c in C_VALUES:
                assert rayleigh_diff(f, i, j, c).terms == expanded_c_rayleigh_diff(f, i, j, c)
                checked += 1
    assert checked > 1000


def test_c_rayleigh_diff_is_c_times_the_derivative_product_minus_f_times_the_mixed_one():
    f = basis_poly(graphic(k4()))
    for i, j in combinations(range(1, f.n + 1), 2):
        for c in C_VALUES:
            assert rayleigh_diff(f, i, j, c).terms == derivative_form(f, i, j, c)


def test_term_dict_product_refuses_a_cube():
    with pytest.raises(ValueError, match="degree 2"):
        times({(0, 1): 1}, {(1, 0): 1})


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
    """Every distinct minor of the is_balanced Fails fixtures, including the
    ones that fail."""
    failing = 0
    for n, masks, _, _ in _minors(M):
        minor = Matroid(n, masks, validate=False)
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
    """The search's float arrays by a loop over each term's elements."""
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
            assert d == reference_rayleigh_diff(f, i, j)
            assert d.terms == derivative_form(f, i, j)
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
            new_terms += len(set(ref.terms) - set(times(f_i.terms, f_j.terms))) > 1
    assert new_terms > 300


def test_rayleigh_diff_at_c_matches_the_composition_term_for_term():
    """At every c, the same terms in the same order with the same coefficient
    types as c times the Rayleigh difference plus (c - 1) f_ij f, on every
    pair of the census and atlas matroids and of random signed polynomials."""
    rng = random.Random(41)
    polys = [basis_poly(M) for M in census_and_atlas()]
    polys += [random_multiaffine(rng) for _ in range(300)]
    checked = 0
    for f in polys:
        for i, j in combinations(range(1, f.n + 1), 2):
            for c in C_VALUES:
                composed = BoundedPoly(f.n, composed_c_rayleigh_diff(f, i, j, c))
                assert typed_terms(rayleigh_diff(f, i, j, c)) == typed_terms(composed)
                checked += 1
    assert checked > 18_000


def test_pair_decomposition_parts_are_valid_and_reassemble():
    rng = random.Random(31)
    for _ in range(300):
        f = random_multiaffine(rng)
        i, j = rng.sample(range(1, f.n + 1), 2)
        parts = pair_decomposition(f, i, j)
        for p in parts:
            assert normalised(p) and typed_terms(p) == typed_terms(BoundedPoly(f.n, p.terms))
        xi, xj = {(1 << (i - 1), 0): 1}, {(1 << (j - 1), 0): 1}
        f_ij, f_i, f_j, f_0 = (p.terms for p in parts)
        assert combination((1, times(times(xi, xj), f_ij)), (1, times(xi, f_i)),
                           (1, times(xj, f_j)), (1, f_0)) == f.terms


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


# ---------------------------------------------------------------------------
# the integer Gram elimination against the Fraction LDL^T


def reference_is_psd(A):
    """Pivoted LDL^T over the rationals, as sos ran it before its Gram
    matrices became integer: an exact semidefiniteness test."""
    A = [[Fraction(x) for x in row] for row in A]
    active = list(range(len(A)))
    while active:
        if any(A[i][i] < 0 for i in active):
            return False
        pivots = [i for i in active if A[i][i] > 0]
        if not pivots:
            return all(A[i][j] == 0 for i in active for j in active)
        piv = pivots[0]
        d = A[piv][piv]
        active.remove(piv)
        for i in [i for i in active if A[i][piv] != 0]:
            f = A[i][piv] / d
            for j in active:
                A[i][j] -= f * A[piv][j]
    return True


def random_symmetric(rng, m):
    """A low-rank PSD matrix, which one of three changes may spoil: a +-1 on
    the diagonal, zeroed row/column pairs, or nothing; or a sparse random
    symmetric matrix."""
    kind = rng.randrange(4)
    if kind == 3:
        A = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1):
                if rng.random() < 0.4:
                    A[i][j] = A[j][i] = rng.randint(-4, 4)
        return A
    vecs = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, m))]
    A = [[sum(v[i] * v[j] for v in vecs) for j in range(m)] for i in range(m)]
    if kind == 1:
        i = rng.randrange(m)
        A[i][i] += rng.choice((-1, 1))
    elif kind == 2:
        for i in rng.sample(range(m), rng.randint(1, m)):
            for j in range(m):
                A[i][j] = A[j][i] = 0
    return A


def test_integer_elimination_matches_the_fraction_ldlt_on_random_matrices():
    rng = random.Random(12)
    decided = {True: 0, False: 0}
    for _ in range(6000):
        A = random_symmetric(rng, rng.randint(1, 8))
        psd = reference_is_psd(A)
        assert sos._is_psd_integer(A) == psd, A
        decided[psd] += 1
    assert min(decided.values()) > 1500


def poly_to_exponents(p, var_ids):
    """p as a map from exponent tuples over var_ids to its coefficients."""
    idx = {v: k for k, v in enumerate(var_ids)}
    out = {}
    for (lin, sq), c in p.terms.items():
        e = [0] * len(var_ids)
        for v in elements(lin):
            e[idx[v]] = 1
        for v in elements(sq):
            e[idx[v]] = 2
        out[tuple(e)] = c
    return out


def multiaffine_basis(target, k):
    """0/1 exponent vectors over the variables the target squares somewhere,
    of half the target's degrees."""
    allowed = [i for i in range(k) if any(e[i] == 2 for e in target)]
    degs = {sum(e) for e in target}
    if not degs:
        return []
    out = []
    for size in range((min(degs) + 1) // 2, max(degs) // 2 + 1):
        for combo in combinations(allowed, size):
            e = [0] * k
            for i in combo:
                e[i] = 1
            out.append(tuple(e))
    return out


def as_mask(e, var_ids):
    """A 0/1 exponent vector as the mask Q of its monomial x^Q."""
    return sum(1 << (v - 1) for v, x in zip(var_ids, e) if x)


def reference_uniform_gram(p):
    """The uniform Gram of p in Fractions over the exponent-vector basis that
    sos built before its monomials became masks: a map from each pair of
    basis masks to its entry; None when no Gram matrix over the basis
    reproduces p or when it is not PSD."""
    var_ids = tuple(sorted(p.active_vars()))
    k = len(var_ids)
    target = poly_to_exponents(p, var_ids)
    if any(any(e[i] for e in target) and not any(e[i] == 2 for e in target) for i in range(k)):
        return None
    basis = multiaffine_basis(target, k)
    groups = {}
    for i, mi in enumerate(basis):
        for j, mj in enumerate(basis):
            groups.setdefault(tuple(x + y for x, y in zip(mi, mj)), []).append((i, j))
    if any(sig not in groups for sig in target):
        return None
    mat = [[Fraction(0)] * len(basis) for _ in basis]
    for sig, entries in groups.items():
        for i, j in entries:
            mat[i][j] = Fraction(target.get(sig, 0)) / len(entries)
    if not reference_is_psd(mat):
        return None
    return {
        (as_mask(a, var_ids), as_mask(b, var_ids)): q
        for a, row in zip(basis, mat)
        for b, q in zip(basis, row)
    }


def expansion(basis, matrix, scale=1):
    """m^T G m over scale, as term keys: x^Qa x^Qb has the key
    (Qa ^ Qb, Qa & Qb)."""
    out = {}
    for a, row in zip(basis, matrix):
        for b, q in zip(basis, row):
            key = (a ^ b, a & b)
            out[key] = out.get(key, 0) + Fraction(q) / scale
    return {key: c for key, c in out.items() if c}


def test_every_gram_call_of_the_rayleigh_checks_decides_like_the_fraction_oracle(monkeypatch):
    calls = []
    certify = analysis.sos_certificate

    def recorded(p):
        cert = certify(p)
        calls.append((p, cert))
        return cert

    monkeypatch.setattr(analysis, "sos_certificate", recorded)
    matroids = [M for _, M in lpm_family(5)] + list(sparse_paving_family(7, 3))
    for M in matroids + [named_atlas(name) for name in ATLAS]:
        f = basis_poly(M)
        rayleigh_verdict(f, budget=200)
        strong_rayleigh_verdict(f, budget=200)
        for c in (Fraction(8, 7), 2):
            c_rayleigh_verdict(f, c, budget=200)
    accepted = 0
    for p, cert in calls:
        ref = reference_uniform_gram(p)
        assert (cert is not None) == (ref is not None)
        if cert is not None:
            accepted += 1
            assert expansion(cert.basis, cert.matrix, cert.scale) == p.terms
            assert reference_is_psd(cert.matrix)
            assert {(a, b): Fraction(q, cert.scale) for a, row in zip(cert.basis, cert.matrix)
                    for b, q in zip(cert.basis, row)} == ref
            assert cert.scale == lcm(*(q.denominator for q in ref.values()))
    assert accepted > 100 and len(calls) - accepted > 10


# ---------------------------------------------------------------------------
# lattice path matroids from their paths, 2-sums from minors, one class stream


def transversal_route_lattice_path(L):
    """The lattice path matroid as the transversal matroid of its row
    intervals, one matching per r-subset."""
    if L.r == 0:
        return Matroid(L.size, [0])
    family = tuple(frozenset(range(l, u + 1)) for l, u in L.intervals())
    return transversal(SetSystem(n=L.size, family=family))


def test_lattice_path_matches_the_transversal_route_on_every_lpm8_presentation():
    count = 0
    for L, M in lpm_family(8):
        assert M.basis_masks == transversal_route_lattice_path(L).basis_masks, (L.p, L.q)
        count += 1
    assert count == 6916


def circuit_gluing_two_sum(M, p, N, q):
    """The 2-sum from its circuits: those of M\\p and N\\q and (C u D) - {p, q}
    for circuits C through p and D through q, with the bases found among all
    (r(M) + r(N) - 1)-subsets as the circuit-free ones."""
    if M.n < 2 or N.n < 2:
        raise BasepointIsSeparator("both parts need at least two elements")
    for mat, e in ((M, p), (N, q)):
        bit = 1 << (e - 1)
        if all(not B & bit for B in mat.basis_masks) or all(B & bit for B in mat.basis_masks):
            raise BasepointIsSeparator(f"basepoint {e} is a loop or coloop")
    pbit, qbit = 1 << (p - 1), 1 << (q - 1)
    cm, cn = circuits(M), circuits(N)
    m_thru = _squeeze([c for c in cm if c & pbit], pbit)
    n_thru = {d << (M.n - 1) for d in _squeeze([d for d in cn if d & qbit], qbit)}
    circ = _squeeze([c for c in cm if not c & pbit], pbit)
    circ |= {d << (M.n - 1) for d in _squeeze([d for d in cn if not d & qbit], qbit)}
    circ |= {c | d for c in m_thru for d in n_thru}
    n_tot, r_tot = M.n + N.n - 2, M.r + N.r - 1
    masks = [
        mask_of(combo) for combo in combinations(range(1, n_tot + 1), r_tot)
        if all(mask_of(combo) & c != c for c in circ)
    ]
    return Matroid(n_tot, masks)


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type is the outcome
        return type(exc)


def two_sum_pool():
    pool = [uniform(k, n) for n in range(0, 6) for k in range(0, n + 1)]
    pool += [named_atlas(name) for name in ATLAS]
    pool += [M for _, M in bicircular_family(5)]
    pool += sparse_paving_family(6, 3)
    pool += [M for _, M in lpm_family(5)]
    return pool


def separators(M):
    """The loops and coloops of M."""
    return [e for e in range(1, M.n + 1)
            if sum(B >> (e - 1) & 1 for B in M.basis_masks) in (0, len(M.basis_masks))]


def basepoint(rng, M):
    """Any element one time in three, otherwise one that is neither a loop nor
    a coloop when M has one."""
    proper = [e for e in range(1, M.n + 1) if e not in separators(M)]
    return rng.choice(proper) if proper and rng.random() < 2 / 3 else rng.randint(1, max(M.n, 1))


def test_two_sum_matches_the_circuit_gluing_on_random_pairs():
    rng = random.Random(16)
    pool = two_sum_pool()
    kinds = Counter()
    while sum(kinds.values()) < 945:
        M, N = rng.choice(pool), rng.choice(pool)
        if M.n + N.n - 2 > 12:
            continue
        p, q = basepoint(rng, M), basepoint(rng, N)
        got = outcome_of(two_sum, M, p, N, q)
        assert got == outcome_of(circuit_gluing_two_sum, M, p, N, q), (M, p, N, q)
        kinds[got if isinstance(got, type) else "sum",
              min(M.n, N.n) < 2 or p in separators(M) or q in separators(N)] += 1
    assert set(kinds) == {("sum", False), (BasepointIsSeparator, True)}
    assert min(kinds.values()) > 300


def parent_sparse_paving_family(n, r, limit=1000):
    """The sparse paving stream with its own per-level buckets and
    exact-repeat set of index tuples."""
    rsets = [mask_of(c) for c in combinations(range(1, n + 1), r)]
    nr = len(rsets)
    conflict = [0] * nr
    for i in range(nr):
        for j in range(nr):
            if i != j and popcount(rsets[i] ^ rsets[j]) == 2:
                conflict[i] |= 1 << j

    def emit(H_idx):
        gone = {rsets[i] for i in H_idx}
        return Matroid(n, [m for m in rsets if m not in gone])

    emitted = 1
    yield emit(())
    reps, seen_exact = [()], {()}
    while reps and emitted < limit:
        buckets, next_reps = {}, []
        for H in reps:
            forbidden = 0
            for i in H:
                forbidden |= conflict[i] | (1 << i)
            for v in range(nr):
                if forbidden & (1 << v):
                    continue
                H2 = tuple(sorted(H + (v,)))
                if H2 in seen_exact:
                    continue
                seen_exact.add(H2)
                masks2 = tuple(rsets[i] for i in H2)
                bucket = buckets.setdefault(family_fingerprint(n, masks2), [])
                if any(core.family_isomorphism(n, masks2, other) is not None for other in bucket):
                    continue
                bucket.append(masks2)
                next_reps.append(H2)
                emitted += 1
                yield emit(H2)
                if emitted >= limit:
                    return
        reps = next_reps


@pytest.fixture
def searches(monkeypatch):
    """Counts the calls of the family isomorphism search, which the class
    stream and the parent loops both reach through the core module."""
    calls = Counter()
    search = core.family_isomorphism

    def counted(n, A, B):
        calls["search"] += 1
        return search(n, A, B)

    monkeypatch.setattr(core, "family_isomorphism", counted)
    return calls


@pytest.mark.parametrize("n, r", [(5, 2), (6, 3), (7, 3), (7, 4), (8, 3), (8, 4)])
def test_sparse_paving_family_matches_the_parent_stream(searches, n, r):
    new = list(sparse_paving_family(n, r, limit=300))
    calls = searches.pop("search", 0)
    assert new == list(parent_sparse_paving_family(n, r, limit=300))
    assert calls == searches["search"] > 0


def test_an_exact_repeat_is_not_searched(searches):
    classes = FamilyClasses()
    assert classes.is_new(4, (0b0011, 0b0101))
    assert not classes.is_new(4, (0b0011, 0b0101))
    assert searches["search"] == 0
    assert not classes.is_new(4, (0b0011, 0b1001))  # an isomorphic copy
    assert searches["search"] == 1
    assert classes.is_new(4, (0b0011, 0b1100))  # other degrees: no search
    assert classes.is_new(4, (0b0011, 0b0101, 0b0110))
    assert searches["search"] == 1
