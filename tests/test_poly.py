"""Exact polynomial engine: arithmetic, Rayleigh differences, measures,
matching polynomials, determinantal representation."""
import random
from fractions import Fraction
from itertools import combinations

import pytest

from matroidwb.core import direct_sum, mask_of, set_of
from matroidwb.constructions import MultiGraph, SetSystem, k4, graphic, transversal, uniform
from matroidwb.errors import (
    DegreeOverflow,
    LoopPresent,
    NotAProbabilityPolynomial,
    NotBipartite,
)
from matroidwb.poly import (
    BoundedPoly,
    EdgeWeights,
    Measure,
    basis_poly,
    c_weights,
    complementary_matching_poly,
    determinantal_rep_graphic,
    generating_poly,
    matching_poly,
    measure_from_poly,
    nlc_check,
    pair_decomposition,
    rayleigh_diff,
    restricted_matching_poly,
)

X1, X2, X3, X4 = 1, 2, 4, 8  # variable bit-masks


def textbook_rayleigh(f, i, j):
    return f.derivative(i) * f.derivative(j) - f.derivative(i).derivative(j) * f


def random_rational(rng):
    return Fraction(rng.randint(0, 9), rng.randint(1, 7))


def random_loopless_graph(rng, max_v=8, max_e=12):
    v = rng.randint(2, max_v)
    edges = []
    for _ in range(rng.randint(1, max_e)):
        a = rng.randint(1, v)
        b = rng.randint(1, v)
        if a != b:
            edges.append((a, b))
    if not edges:
        edges = [(1, 2)]
    return MultiGraph(v=v, edges=tuple(edges))


class TestBoundedPoly:
    def test_basis_poly_u12(self):
        f = basis_poly(uniform(1, 2))
        assert f.terms == {(X1, 0): 1, (X2, 0): 1}

    def test_basis_poly_u23(self):
        f = basis_poly(uniform(2, 3))
        assert len(f.terms) == 3 and all(c == 1 for c in f.terms.values())

    def test_derivative(self):
        f = BoundedPoly(3, {(X1 | X2, 0): 1, (X2 | 4, 0): 1})
        assert f.derivative(2).terms == {(X1, 0): 1, (4, 0): 1}

    def test_derivative_of_square(self):
        f = BoundedPoly(1, {(0, X1): 1})
        assert f.derivative(1).terms == {(X1, 0): 2}

    def test_multiply_square(self):
        f = BoundedPoly(2, {(X1, 0): 1, (X2, 0): 1})
        g = f * f
        assert g.terms == {(0, X1): 1, (X1 | X2, 0): 2, (0, X2): 1}

    def test_degree_overflow(self):
        f = BoundedPoly(1, {(0, X1): 1})
        with pytest.raises(DegreeOverflow):
            f * f

    def test_evaluate_exact(self):
        f = basis_poly(uniform(2, 4))
        assert f.evaluate([1, 1, 1, 1]) == 6
        v = f.evaluate([Fraction(1, 2)] * 4)
        assert v == Fraction(6, 4)

    def test_assign(self):
        f = BoundedPoly(2, {(X1 | X2, 0): 3, (X1, 0): 1})
        g = f.assign({2: Fraction(2)})
        assert g.terms == {(X1, 0): 7}


class TestRayleighDiff:
    def test_u24_pair12(self):
        d = rayleigh_diff(basis_poly(uniform(2, 4)), 1, 2)
        assert d.terms == {(0, X3): 1, (X3 | X4, 0): 1, (0, X4): 1}

    @pytest.mark.parametrize("pair", [(1, 9), (0, 1), (2, 2), (-1, 2), (5, 1)])
    def test_pair_outside_the_variables_is_an_error(self, pair):
        with pytest.raises(ValueError, match=r"two distinct variables of 1\.\.4"):
            rayleigh_diff(basis_poly(uniform(2, 4)), *pair)

    def test_single_basis_zero(self):
        f = BoundedPoly(2, {(X1 | X2, 0): 1})
        assert rayleigh_diff(f, 1, 2).is_zero()

    def test_matches_textbook_formula(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            M = uniform(k, n)
            f = basis_poly(M)
            i, j = rng.sample(range(1, n + 1), 2)
            red = rayleigh_diff(f, i, j)
            assert red == textbook_rayleigh(f, i, j)
            bij = (1 << (i - 1)) | (1 << (j - 1))
            for (lin, sq) in red.terms:
                assert not ((lin | sq) & bij)
            assert red == rayleigh_diff(f, j, i)

    def test_coloop_identities(self):
        f = basis_poly(uniform(2, 4))
        g = basis_poly(direct_sum(uniform(2, 4), uniform(1, 1)))  # coloop 5
        xe2 = BoundedPoly(5, {(0, 16): 1})
        lifted = BoundedPoly(5, rayleigh_diff(f, 1, 2).terms)
        assert rayleigh_diff(g, 1, 2) == xe2 * lifted
        assert rayleigh_diff(g, 5, 1).is_zero()

    def test_all_ones_counts_link(self):
        M = graphic(k4())
        f = basis_poly(M)
        N = len(M.basis_masks)
        for (e, fe) in combinations(range(1, 7), 2):
            Ne = sum(1 for B in M.basis_masks if B & (1 << (e - 1)))
            Nf = sum(1 for B in M.basis_masks if B & (1 << (fe - 1)))
            Nef = sum(
                1
                for B in M.basis_masks
                if B & (1 << (e - 1)) and B & (1 << (fe - 1))
            )
            d = rayleigh_diff(f, e, fe)
            assert d.evaluate([1] * 6) == Ne * Nf - N * Nef

    def test_scaling_squares(self):
        f = basis_poly(uniform(2, 4))
        d = rayleigh_diff(f, 1, 2)
        scaled = rayleigh_diff(f.scale(Fraction(3, 5)), 1, 2)
        assert scaled == d.scale(Fraction(9, 25))

    def test_pair_decomposition_reassembles(self):
        rng = random.Random(8)
        for _ in range(50):
            M = uniform(rng.randint(1, 5), 5)
            f = basis_poly(M)
            i, j = rng.sample(range(1, 6), 2)
            f_ij, f_i, f_j, f_0 = pair_decomposition(f, i, j)
            xi, xj = BoundedPoly.variable(5, i), BoundedPoly.variable(5, j)
            assert xi * xj * f_ij + xi * f_i + xj * f_j + f_0 == f


class TestMeasures:
    def test_uniform_measure_poly(self):
        mu = Measure.uniform_on_bases(uniform(1, 2))
        g = generating_poly(mu)
        assert g.terms == {(X1, 0): Fraction(1, 2), (X2, 0): Fraction(1, 2)}

    def test_roundtrip(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(1, 5)
            masks = rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
            weights = [Fraction(rng.randint(1, 5)) for _ in masks]
            total = sum(weights)
            mu = Measure(n, {m: w / total for m, w in zip(masks, weights)})
            assert measure_from_poly(generating_poly(mu)).weights == {
                m: w for m, w in mu.weights.items() if w != 0
            }

    def test_rejects_non_probability(self):
        with pytest.raises(NotAProbabilityPolynomial):
            measure_from_poly(basis_poly(uniform(2, 4)))

    def test_basis_measure_weights(self):
        M = uniform(2, 4)
        f = basis_poly(M).scale(Fraction(1, 6))
        mu = measure_from_poly(f)
        assert all(mu.weight(B) == Fraction(1, 6) for B in M.basis_masks)


class TestNLC:
    def test_uniform_basis_measure_holds(self):
        for M in (uniform(2, 4), graphic(k4())):
            assert nlc_check(Measure.uniform_on_bases(M)).holds

    def test_violating_measure(self):
        mu = Measure(
            2, {0: Fraction(1, 2), 3: Fraction(1, 2)}
        )
        v = nlc_check(mu)
        assert v.fails
        assert {tuple(v.witness.extra["S"]), tuple(v.witness.extra["T"])} == {
            (1,), (2,)
        }

    def test_product_measure_equality(self):
        # independent coin flips: NLC holds with equality everywhere
        half = Fraction(1, 2)
        mu = Measure(2, {0: half * half, 1: half * half, 2: half * half, 3: half * half})
        assert nlc_check(mu).holds


class TestMatchingPolys:
    def test_single_edge(self):
        G = MultiGraph(v=2, edges=((1, 2),))
        f = matching_poly(G)
        assert f.terms == {(0, 0): 1, (3, 0): 1}

    def test_loop_rejected(self):
        with pytest.raises(LoopPresent):
            matching_poly(MultiGraph(v=1, edges=((1, 1),)))

    def test_deletion_recursion(self):
        rng = random.Random(21)
        for _ in range(30):
            G = random_loopless_graph(rng, max_v=6, max_e=8)
            lam = EdgeWeights({k + 1: random_rational(rng) for k in range(G.e)})
            e_id = rng.randint(1, G.e)
            i, j = G.edges[e_id - 1]
            # delete the edge
            rest = tuple(ed for k, ed in enumerate(G.edges) if k != e_id - 1)
            lam_rest = EdgeWeights(
                {k + 1: lam[idx + 1] for k, idx in enumerate(
                    [t for t in range(G.e) if t != e_id - 1]
                )}
            )
            G_del = MultiGraph(v=G.v, edges=rest)
            # delete both endpoints (edges touching i or j removed)
            kept = [
                (k, ed) for k, ed in enumerate(G.edges)
                if i not in ed and j not in ed
            ]
            G_min = MultiGraph(v=G.v, edges=tuple(ed for _, ed in kept)) if kept else MultiGraph(v=G.v, edges=())
            lam_min = EdgeWeights({t + 1: lam[k + 1] for t, (k, _) in enumerate(kept)})
            lhs = matching_poly(G, lam)
            xixj = BoundedPoly(G.v, {(mask_of([i, j]), 0): lam[e_id]})
            rhs = matching_poly(G_del, lam_rest) + xixj * matching_poly(G_min, lam_min)
            assert lhs == rhs

    def test_complementary_recursion(self):
        rng = random.Random(22)
        for _ in range(30):
            G = random_loopless_graph(rng, max_v=6, max_e=8)
            lam = EdgeWeights({k + 1: random_rational(rng) for k in range(G.e)})
            i = rng.randint(1, G.v)
            # M~_G = x_i M~_{G-i} + sum_{e ~ i, e=ij} lam_e M~_{G-i-j}
            kept_i = [(k, ed) for k, ed in enumerate(G.edges) if i not in ed]
            G_i = MultiGraph(v=G.v, edges=tuple(ed for _, ed in kept_i))
            lam_i = EdgeWeights({t + 1: lam[k + 1] for t, (k, _) in enumerate(kept_i)})
            # vertex-deleted polynomials live on the same vertex index space,
            # with deleted vertices' variables simply absent
            xi = BoundedPoly(G.v, {(1 << (i - 1), 0): 1})
            rhs = xi * _drop_vertex(complementary_matching_poly(G_i, lam_i), i)
            for k, (a, b) in enumerate(G.edges):
                if i not in (a, b):
                    continue
                j = b if a == i else a
                kept_ij = [
                    (t, ed) for t, ed in enumerate(G.edges)
                    if i not in ed and j not in ed
                ]
                G_ij = MultiGraph(v=G.v, edges=tuple(ed for _, ed in kept_ij)) if kept_ij else MultiGraph(v=G.v, edges=())
                lam_ij = EdgeWeights(
                    {t + 1: lam[k2 + 1] for t, (k2, _) in enumerate(kept_ij)}
                )
                term = _drop_vertex(
                    _drop_vertex(complementary_matching_poly(G_ij, lam_ij), i), j
                ).scale(lam[k + 1])
                rhs = rhs + term
            lhs = complementary_matching_poly(G, lam)
            assert lhs == rhs

    def test_restricted_identity_with_c_weights(self):
        rng = random.Random(23)
        for _ in range(30):
            a_count = rng.randint(1, 3)
            b_count = rng.randint(1, 3)
            v = a_count + b_count
            A = list(range(1, a_count + 1))
            edges = []
            for _ in range(rng.randint(1, 8)):
                edges.append(
                    (rng.randint(1, a_count), a_count + rng.randint(1, b_count))
                )
            G = MultiGraph(v=v, edges=tuple(edges))
            lam = EdgeWeights({k + 1: random_rational(rng) for k in range(G.e)})
            lhs = restricted_matching_poly(G, A, lam)
            cs = c_weights(G, A, lam)
            rhs = BoundedPoly(v, {(S, 0): w for S, w in cs.items()})
            assert lhs == rhs

    def test_c_weights_support_is_transversal_independence(self):
        rng = random.Random(24)
        for _ in range(20):
            a_count = rng.randint(1, 3)
            b_count = rng.randint(1, 3)
            A = list(range(1, a_count + 1))
            edges = tuple(
                (rng.randint(1, a_count), a_count + rng.randint(1, b_count))
                for _ in range(rng.randint(1, 7))
            )
            G = MultiGraph(v=a_count + b_count, edges=edges)
            cs = c_weights(G, A)  # unit weights: support = matchable sets
            family = tuple(
                frozenset(a for (a, b) in G.edges if b == bb)
                for bb in range(a_count + 1, a_count + b_count + 1)
            )
            family = tuple(s for s in family if s) or (frozenset(),)
            if all(not s for s in family):
                continue
            M = transversal(SetSystem(n=a_count, family=family))
            indep = {
                mask_of(c)
                for r in range(M.r + 1)
                for c in combinations(range(1, a_count + 1), r)
                if M.is_independent(mask_of(c))
            }
            assert set(cs.keys()) == indep

    def test_not_bipartite(self):
        G = MultiGraph(v=3, edges=((1, 2), (2, 3), (3, 1)))
        with pytest.raises(NotBipartite):
            restricted_matching_poly(G, [1, 2])


def _drop_vertex(f, i):
    """Set x_i = 1: deleted vertices keep no variable in the subgraph polys."""
    return f.assign({i: 1})


class TestDeterminantal:
    @staticmethod
    def exact_det(rows):
        rows = [list(map(Fraction, r)) for r in rows]
        n = len(rows)
        det = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                det = -det
            det *= rows[col][col]
            inv = Fraction(1) / rows[col][col]
            for r in range(col + 1, n):
                if rows[r][col] != 0:
                    f = rows[r][col] * inv
                    for c in range(col, n):
                        rows[r][c] -= f * rows[col][c]
        return det

    def det_at_point(self, vecs, point):
        d = len(vecs[0])
        mat = [[Fraction(0)] * d for _ in range(d)]
        for xe, col in zip(point, vecs):
            for a in range(d):
                for b in range(d):
                    mat[a][b] += xe * col[a] * col[b]
        return self.exact_det(mat)

    def test_single_edge(self):
        G = MultiGraph(v=2, edges=((1, 2),))
        vecs = determinantal_rep_graphic(G)
        assert self.det_at_point(vecs, [Fraction(5)]) == 5

    def test_triangle_and_k4(self):
        rng = random.Random(31)
        for G in (
            MultiGraph(v=3, edges=((1, 2), (2, 3), (3, 1))),
            k4(),
        ):
            vecs = determinantal_rep_graphic(G)
            f = basis_poly(graphic(G))
            for _ in range(20):
                point = [
                    Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                    for _ in range(G.e)
                ]
                assert self.det_at_point(vecs, point) == f.evaluate(point)

    def test_random_graphs(self):
        rng = random.Random(32)
        for _ in range(20):
            G = random_loopless_graph(rng, max_v=6, max_e=9)
            vecs = determinantal_rep_graphic(G)
            f = basis_poly(graphic(G))
            for _ in range(20):
                point = [
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(G.e)
                ]
                assert self.det_at_point(vecs, point) == f.evaluate(point)

    def test_loop_rejected(self):
        with pytest.raises(LoopPresent):
            determinantal_rep_graphic(MultiGraph(v=1, edges=((1, 1),)))
