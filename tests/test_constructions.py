"""Graphic, bicircular, transversal, lattice path constructions and the
extension/truncation operators."""
import random
from itertools import combinations

import pytest

from matroidwb.core import (
    delete,
    dual,
    isomorphism,
    mask_of,
    rank_of,
    set_of,
)
from matroidwb.constructions import (
    LatticePathPair,
    MultiGraph,
    SetSystem,
    bicircular,
    graphic,
    k4,
    k33,
    lattice_path,
    lattice_path_pair_from_endpoints,
    lpm_recursive_build,
    named_atlas,
    principal_extension,
    principal_truncation,
    transversal,
    uniform,
    whirl,
)
from matroidwb.errors import (
    DependentGeneratorSet,
    FDisjointFromAllBases,
    PathViolation,
    UnknownName,
)

PAPER_BASES = {
    "125", "126", "135", "136", "145", "146", "156",
    "235", "236", "245", "246", "256", "345", "346", "356",
}


def bases_as_strings(M):
    return {"".join(str(e) for e in sorted(b)) for b in M.bases}


class TestUniform:
    def test_counts(self):
        assert len(uniform(2, 4).basis_masks) == 6
        assert len(uniform(3, 6).basis_masks) == 20

    def test_rank_zero(self):
        M = uniform(0, 3)
        assert M.basis_masks == (0,)
        assert all(rank_of(M, [e]) == 0 for e in (1, 2, 3))


class TestGraphic:
    def test_k4_cayley(self):
        assert len(graphic(k4()).basis_masks) == 16

    def test_triangle(self):
        G = MultiGraph(v=3, edges=((1, 2), (2, 3), (3, 1)))
        assert graphic(G) == uniform(2, 3)

    def test_loop_edge_is_matroid_loop(self):
        G = MultiGraph(v=2, edges=((1, 2), (1, 1)))
        M = graphic(G)
        assert rank_of(M, [2]) == 0


class TestBicircular:
    def test_triangle_free(self):
        G = MultiGraph(v=3, edges=((1, 2), (2, 3), (3, 1)))
        assert bicircular(G) == uniform(3, 3)

    def test_k33_rank(self):
        M = bicircular(k33())
        assert (M.n, M.r) == (9, 6)

    def test_two_loops_tight_handcuff(self):
        G = MultiGraph(v=1, edges=((1, 1), (1, 1)))
        M = bicircular(G)
        assert M.r == 1
        from matroidwb.core import circuits

        assert [set_of(m) for m in circuits(M)] == [{1, 2}]


class TestTransversal:
    def test_two_copies(self):
        S = SetSystem(n=2, family=(frozenset({1, 2}), frozenset({1, 2})))
        assert transversal(S) == uniform(2, 2)

    def test_single_set(self):
        S = SetSystem(n=3, family=(frozenset({1, 2, 3}),))
        assert transversal(S) == uniform(1, 3)

    def test_paper_intervals(self):
        S = SetSystem(
            n=6,
            family=(
                frozenset({1, 2, 3}),
                frozenset({2, 3, 4, 5}),
                frozenset({5, 6}),
            ),
        )
        assert bases_as_strings(transversal(S)) == PAPER_BASES

    @pytest.mark.parametrize("n", [17, -1])
    def test_a_ground_set_outside_0_to_16_is_refused(self, n):
        """Before any subset table of 2^n entries is built."""
        with pytest.raises(ValueError, match=rf"ground set size must be in 0\.\.16, got {n}"):
            SetSystem(n=n, family=(frozenset(),))


class TestLatticePath:
    def test_paper_example(self):
        L = lattice_path_pair_from_endpoints([1, 2, 5], [3, 5, 6])
        assert bases_as_strings(lattice_path(L)) == PAPER_BASES

    def test_equal_paths_single_basis(self):
        L = LatticePathPair("NENE", "NENE")
        M = lattice_path(L)
        assert M.bases == (frozenset({1, 3}),)

    def test_bounding_rectangle_uniform(self):
        L = LatticePathPair("EENN", "NNEE")
        assert lattice_path(L) == uniform(2, 4)

    def test_path_violation(self):
        with pytest.raises(PathViolation):
            LatticePathPair("NNEE", "EENN")
        with pytest.raises(PathViolation):
            LatticePathPair("NE", "NEE")

    def test_paths_vs_transversal_oracle(self):
        # basis sets equal the N-step position sets of monotone paths between
        # P and Q (independent oracle: enumerate paths inside the strip)
        for total in range(2, 8):
            for r in range(0, total + 1):
                pos = list(combinations(range(1, total + 1), r))
                for q_n in pos:
                    for p_n in pos:
                        if any(l > u for l, u in zip(q_n, p_n)):
                            continue
                        p = "".join(
                            "N" if i in set(p_n) else "E"
                            for i in range(1, total + 1)
                        )
                        q = "".join(
                            "N" if i in set(q_n) else "E"
                            for i in range(1, total + 1)
                        )
                        M = lattice_path(LatticePathPair(p, q))
                        paths = {
                            mask_of(c)
                            for c in pos
                            if all(
                                lq <= u_i <= up
                                for lq, u_i, up in zip(q_n, c, p_n)
                            )
                        }
                        # a monotone path between P and Q == choice of N
                        # positions c with q_n[i] <= c[i] <= p_n[i]
                        assert set(M.basis_masks) == paths, (p, q)

    def test_dual_is_transposed_pair(self):
        rng = random.Random(2)
        for total in (4, 5, 6):
            for _ in range(10):
                r = rng.randint(1, total - 1)
                pos = list(combinations(range(1, total + 1), r))
                q_n = rng.choice(pos)
                cands = [
                    p_n for p_n in pos
                    if all(l <= u for l, u in zip(q_n, p_n))
                ]
                p_n = rng.choice(cands)
                p = "".join("N" if i in set(p_n) else "E" for i in range(1, total + 1))
                q = "".join("N" if i in set(q_n) else "E" for i in range(1, total + 1))
                M = lattice_path(LatticePathPair(p, q))
                swap = str.maketrans("NE", "EN")
                Ld = LatticePathPair(q.translate(swap), p.translate(swap))
                assert dual(M) == lattice_path(Ld)


class TestTruncationExtension:
    def setup_method(self):
        self.L = lattice_path_pair_from_endpoints([1, 2, 5], [3, 5, 6])
        self.M = lattice_path(self.L)

    def test_paper_truncation_lists(self):
        tr = principal_truncation(self.M, [6])
        assert bases_as_strings(tr) == {
            "12", "13", "14", "15", "23", "24", "25", "34", "35"
        }
        # the full-F truncation keeps every pair lying in some basis
        tr_full = principal_truncation(self.M, range(1, 7))
        assert len(tr_full.basis_masks) == 15

    def test_paper_extension_list(self):
        ext = principal_extension(self.M, [6])
        assert bases_as_strings(ext) == PAPER_BASES | {
            "127", "137", "147", "157", "237", "247", "257", "347", "357"
        }

    def test_full_truncation_uniform(self):
        assert principal_truncation(uniform(2, 4), [1, 2, 3, 4]) == uniform(1, 4)

    def test_coloop_truncation(self):
        M = lpm_recursive_build(["coloop", "coloop", 2])
        # element 1 is a coloop of this rank-2 matroid
        tr = principal_truncation(M, [1])
        assert all(1 not in b for b in tr.bases)

    def test_extension_of_uniform(self):
        assert principal_extension(uniform(2, 4), [1, 2, 3, 4]) == uniform(2, 5)

    def test_extension_then_delete_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 6)
            M = uniform(rng.randint(1, n), n)
            F = [e for e in range(1, n + 1) if rng.random() < 0.5] or [1]
            try:
                ext = principal_extension(M, F)
            except FDisjointFromAllBases:
                continue
            assert delete(ext, [n + 1]) == M

    def test_disjoint_F_rejected(self):
        M = lpm_recursive_build(["loop", "coloop"])
        with pytest.raises(FDisjointFromAllBases):
            principal_truncation(M, [1])

    @pytest.mark.parametrize("op", [principal_truncation, principal_extension])
    @pytest.mark.parametrize("F, bad", [([1, 9], 9), ([0, 2], 0), ([-1], -1)])
    def test_an_element_outside_the_ground_set_is_refused(self, op, F, bad):
        with pytest.raises(ValueError, match=rf"element {bad} is not in the ground set 1\.\.3"):
            op(uniform(2, 3), F)


class TestRecursiveBuild:
    def test_coloops_only(self):
        assert lpm_recursive_build(["coloop", "coloop"]) == uniform(2, 2)

    def test_u13(self):
        assert lpm_recursive_build(["coloop", 1, 2]) == uniform(1, 3)

    def test_dependent_generators_rejected(self):
        with pytest.raises(DependentGeneratorSet):
            lpm_recursive_build(["coloop", 1, 1])

    def test_reaches_paper_example(self):
        # some step sequence rebuilds M[125,356] up to isomorphism
        target = lattice_path(lattice_path_pair_from_endpoints([1, 2, 5], [3, 5, 6]))
        found = None

        def sequences(i, prefix):
            if i == 7:
                yield prefix
                return
            options = ["loop", "coloop"] + list(range(1, i))
            for opt in options:
                yield from sequences(i + 1, prefix + [opt])

        for steps in sequences(1, []):
            try:
                M = lpm_recursive_build(steps)
            except DependentGeneratorSet:
                continue
            if M.r == 3 and len(M.basis_masks) == 15 and isomorphism(M, target) is not None:
                found = steps
                break
        assert found is not None

    def test_loop_coloop_mix(self):
        M = lpm_recursive_build(["coloop", "loop", "coloop"])
        assert M.r == 2
        assert rank_of(M, [2]) == 0


class TestWhirlAtlas:
    def test_whirl3_shape(self):
        W = whirl(3)
        assert (W.n, W.r, len(W.basis_masks)) == (6, 3, 17)

    def test_whirl2_is_u24(self):
        assert isomorphism(whirl(2), uniform(2, 4)) is not None

    def test_whirl3_nonbases_are_spoke_rim_spoke(self):
        W = whirl(3)
        non = [
            set_of(mask_of(c))
            for c in combinations(range(1, 7), 3)
            if mask_of(c) not in W._basis_set
        ]
        assert len(non) == 3

    def test_atlas_entries(self):
        assert len(named_atlas("MK4").basis_masks) == 16
        assert named_atlas("BK33").r == 6
        T = named_atlas("TicTacToe")
        assert (T.n, T.r) == (9, 3)
        assert named_atlas("U24") == uniform(2, 4)
        with pytest.raises(UnknownName):
            named_atlas("nope")
