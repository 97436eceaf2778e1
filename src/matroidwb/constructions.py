"""Matroid constructions from graphs, set systems, lattice paths, and the
loop/coloop/principal-extension operators."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .core import (
    MAX_ELEMENTS,
    Matroid,
    _ground_mask,
    dual,
    mask_components,
    mask_of,
    subset_sizes,
)
from .errors import (
    DependentGeneratorSet,
    FDisjointFromAllBases,
    PathViolation,
    UnknownName,
)

# ---------------------------------------------------------------------------
# presentation types


@dataclass(frozen=True)
class MultiGraph:
    """Labelled multigraph; loops (u, u) and parallel edges are allowed.

    Edge index (1-based position in `edges`) is the matroid element.
    """

    v: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("need at least one vertex")
        if len(self.edges) > MAX_ELEMENTS:
            raise ValueError(f"edge count capped at {MAX_ELEMENTS}")
        for (a, b) in self.edges:
            if not (1 <= a <= self.v and 1 <= b <= self.v):
                raise ValueError(f"edge ({a},{b}) outside vertex range 1..{self.v}")

    @property
    def e(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SetSystem:
    """A family A_1..A_k of subsets of [n]; duplicates are allowed."""

    n: int
    family: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_ELEMENTS:
            raise ValueError(f"ground set size must be in 0..{MAX_ELEMENTS}, got {self.n}")
        if len(self.family) < 1:
            raise ValueError("set system needs at least one member")
        for A in self.family:
            if any(e < 1 or e > self.n for e in A):
                raise ValueError("set member outside ground set")


@dataclass(frozen=True)
class LatticePathPair:
    """Two monotone lattice paths (strings over N/E) from (0,0) to (m,r),
    with the lower path `p` never rising above the upper path `q`."""

    p: str
    q: str

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise PathViolation("paths must have equal length")
        if not self.p or set(self.p + self.q) - {"N", "E"}:
            raise PathViolation("paths must be nonempty strings over {N, E}")
        if self.p.count("N") != self.q.count("N"):
            raise PathViolation("paths must end at the same point")
        hp = hq = 0
        for cp, cq in zip(self.p, self.q):
            hp += cp == "N"
            hq += cq == "N"
            if hp > hq:
                raise PathViolation("lower path rises above the upper path")

    @property
    def r(self) -> int:
        return self.p.count("N")

    @property
    def m(self) -> int:
        return self.p.count("E")

    @property
    def size(self) -> int:
        return len(self.p)

    def intervals(self) -> tuple[tuple[int, int], ...]:
        """The interval [l_i, u_i] for each row, from the N-step positions."""
        upper_n = [i + 1 for i, c in enumerate(self.p) if c == "N"]
        lower_n = [i + 1 for i, c in enumerate(self.q) if c == "N"]
        return tuple(zip(lower_n, upper_n))


def lattice_path_pair_from_endpoints(
    lower: Sequence[int], upper: Sequence[int]
) -> LatticePathPair:
    """Pair from interval endpoints: `lower` gives l_1<..<l_r (upper path's
    N positions), `upper` gives u_1<..<u_r; the ground set is [u_r]."""
    if len(lower) != len(upper) or not lower:
        raise PathViolation("endpoint lists must be nonempty and equal length")
    r = len(lower)
    n = upper[-1]
    for seq in (lower, upper):
        if list(seq) != sorted(set(seq)) or seq[0] < 1 or seq[-1] > n:
            raise PathViolation("endpoints must be strictly increasing in 1..u_r")
    if any(l > u for l, u in zip(lower, upper)):
        raise PathViolation("need l_i <= u_i for every interval")
    p = "".join("N" if i in set(upper) else "E" for i in range(1, n + 1))
    q = "".join("N" if i in set(lower) else "E" for i in range(1, n + 1))
    return LatticePathPair(p, q)


# ---------------------------------------------------------------------------
# the constructions


def uniform(k: int, n: int) -> Matroid:
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    return Matroid(n, (mask_of(c) for c in combinations(range(1, n + 1), k)))


def graphic(G: MultiGraph) -> Matroid:
    """Cycle matroid: the bases are the maximal spanning forests of G, the
    rank-sized edge sets that leave as many components of the vertex set
    as all of G's edges do (rank = vertices - components)."""
    vertices = (1 << G.v) - 1
    ends = [1 << (a - 1) | 1 << (b - 1) for a, b in G.edges]
    parts = len(mask_components(vertices, ends))
    combos = combinations(range(1, G.e + 1), G.v - parts)
    return Matroid(G.e, (
        mask_of(c) for c in combos
        if len(mask_components(vertices, [ends[i - 1] for i in c])) == parts))


def bicircular(G: MultiGraph) -> Matroid:
    """Bicircular matroid: a set of edges is independent when every component
    of the edge-induced subgraph has at most one cycle (a loop is a cycle),
    that is when each edge can take a distinct end of its own.  So it is the
    transversal matroid of the vertices' incidence sets, a loop incident
    with its one vertex (Matthews, Quart. J. Math. Oxford 28, 1977)."""
    return transversal(SetSystem(G.e, tuple(
        frozenset(i for i, edge in enumerate(G.edges, 1) if v in edge)
        for v in range(1, G.v + 1))))


def transversal(S: SetSystem) -> Matroid:
    """Transversal matroid: the independent sets are the partial transversals,
    the sets T with a matching into the members.  After members A_1..A_j,
    matched[T] says that T matches into them: T matched into A_1..A_{j-1},
    or T - e did for some e in A_j & T.  The bases are the largest matched T."""
    matched = np.zeros(1 << S.n, dtype=bool)
    matched[0] = True
    for A in S.family:
        before = matched.copy()
        for e in A:
            bit = 1 << (e - 1)
            matched.reshape(-1, 2, bit)[:, 1, :] |= before.reshape(-1, 2, bit)[:, 0, :]
    sizes = subset_sizes(S.n)
    rank = sizes[matched].max()
    return Matroid(S.n, np.flatnonzero(matched & (sizes == rank)).tolist())


def lattice_path(L: LatticePathPair) -> Matroid:
    """The lattice path matroid on [m+r]: its bases are the lattice paths
    between the two bounding paths, the r-sets whose k-th smallest element
    lies in the k-th row interval [l_k, u_k] (Bonin, de Mier and Noy, JCTA
    104, 2003)."""
    rows = L.intervals()
    masks = [
        mask_of(combo)
        for combo in combinations(range(1, L.size + 1), L.r)
        if all(l <= b <= u for b, (l, u) in zip(combo, rows))
    ]
    return Matroid(L.size, masks)


# ---------------------------------------------------------------------------
# principal truncation / extension and the recursive builder


def principal_truncation(M: Matroid, F: Iterable[int]) -> Matroid:
    """Bases are B minus one F-element: {B \\ {f} : B basis, f in F n B}."""
    fmask = _ground_mask(M, F)
    masks = set()
    for B in M.basis_masks:
        inter = B & fmask
        while inter:
            bit = inter & -inter
            masks.add(B ^ bit)
            inter ^= bit
    if not masks:
        raise FDisjointFromAllBases("F misses every basis")
    return Matroid(M.n, masks)


def principal_extension(M: Matroid, F: Iterable[int]) -> Matroid:
    """Add a new element M.n + 1 freely on (the closure of) F.

    Bases: all old bases plus B u {new} for B a basis of the principal
    truncation by F.
    """
    if M.n + 1 > MAX_ELEMENTS:
        raise ValueError("ground set cap exceeded")
    tr = principal_truncation(M, F)
    newbit = 1 << M.n
    masks = list(M.basis_masks) + [B | newbit for B in tr.basis_masks]
    return Matroid(M.n + 1, masks)


LOOP = "loop"
COLOOP = "coloop"


def lpm_recursive_build(steps: Sequence[str | int]) -> Matroid:
    """Iterated construction: each step adds element i as a loop ("loop"),
    a coloop ("coloop"), or an integer h (< i) meaning a principal extension
    on the closure of {x_h, ..., x_{i-1}}, which must be independent."""
    M = Matroid(0, [0])
    for idx, step in enumerate(steps):
        i = idx + 1
        if step == LOOP:
            M = Matroid(i, M.basis_masks)
        elif step == COLOOP:
            newbit = 1 << (i - 1)
            M = Matroid(i, [B | newbit for B in M.basis_masks])
        elif isinstance(step, int):
            h = step
            if not (1 <= h < i):
                raise DependentGeneratorSet(f"step {i}: need 1 <= h < {i}")
            gens = set(range(h, i))
            if not M.is_independent(gens):
                raise DependentGeneratorSet(
                    f"step {i}: generators x_{h}..x_{i-1} are dependent"
                )
            # extending on the generators is extending on their closure
            M = principal_extension(M, gens)
        else:
            raise ValueError(f"unknown step {step!r}")
    return M


# ---------------------------------------------------------------------------
# named matroids


def whirl(r: int) -> Matroid:
    """Rank-r whirl: the bicircular matroid of an r-cycle with one loop
    attached at each vertex (rim edges 1..r, loops r+1..2r)."""
    if r < 2:
        raise ValueError("whirl needs r >= 2")
    rim = [(i, i % r + 1) for i in range(1, r + 1)]
    loops = [(i, i) for i in range(1, r + 1)]
    return bicircular(MultiGraph(v=r, edges=tuple(rim + loops)))


def k4() -> MultiGraph:
    """K4 as the 3-wheel: hub vertex 1; spokes are edges 1-3, rim is 4-6."""
    return MultiGraph(
        v=4, edges=((1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (2, 4))
    )


def k33() -> MultiGraph:
    return MultiGraph(
        v=6,
        edges=tuple((i, j) for i in (1, 2, 3) for j in (4, 5, 6)),
    )


_ATLAS = {
    "MK4": lambda: graphic(k4()),
    "BK33": lambda: bicircular(k33()),
    "TICTACTOE": lambda: dual(bicircular(k33())),
    "U24": lambda: uniform(2, 4),
    "W3": lambda: whirl(3),
}


def named_atlas(name: str) -> Matroid:
    key = name.upper()
    if key not in _ATLAS:
        raise UnknownName(f"unknown atlas entry {name!r}; have {sorted(_ATLAS)}")
    return _ATLAS[key]()
