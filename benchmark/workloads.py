"""The two workloads: which matroids are enumerated and which public check
functions run on each.

A workload mirrors one census row per instance: the family generator yields
the matroid, ``is_connected`` fills the row's connected column, and each
named check calls the same public functions ``census._run_instance`` calls,
with the seed a census job of that family gives the instance.

Every function of the library is looked up on the package at call time
(``mw.hpp_verdict``, not a local binding), so a traced run sees the calls.
"""
from __future__ import annotations

from typing import Callable, Iterator

# search budget of every verdict and search call, as in the roadmap's census
# baseline rows
BUDGET = 20_000

CHECKS: dict[str, Callable] = {
    "hpp": lambda mw, M, s: mw.hpp_verdict(M, budget=BUDGET, seed=s),
    "rayleigh": lambda mw, M, s: (
        None if (pair := mw.wagner_pair(M)) is None
        else mw.rayleigh_verdict(mw.basis_poly(M), pair, budget=BUDGET, seed=s)
    ),
    "paving": lambda mw, M, s: (mw.is_paving(M), mw.is_sparse_paving(M)),
    "negcorr": lambda mw, M, s: mw.neg_corr_all_pairs(M),
    "balanced": lambda mw, M, s: mw.is_balanced(M),
    "positroid": lambda mw, M, s: mw.positroid_verdict(M),
}


# outcome labels that count as decided; the others are "Inconclusive" and
# "Error" (the check raised)
DECIDED = ("Holds", "Holds (sparse)", "Fails")


def outcome(check: str, result) -> str:
    """Outcome-table label of a check's result."""
    if hasattr(result, "outcome"):
        return result.outcome
    if check == "rayleigh":  # no pair lies in a common basis
        return "Holds"
    if check == "paving":
        paving, sparse = result
        return "Holds (sparse)" if sparse else "Holds" if paving else "Fails"
    assert check == "positroid"  # an order, or None when no order works
    return "Fails" if result is None else "Holds"


def fingerprint(result):
    """What must repeat exactly when a pass is run again with the same seeds."""
    if hasattr(result, "outcome"):
        w = result.witness
        cert = result.certificate
        return (result.outcome, cert and cert.kind, w and (w.value, w.point))
    return result


# An instance is (group, id, index, matroid, checks); the group names the
# family in the outcome table, and the index is the instance's place in its
# census job, from which its search seed follows.
Instances = Iterator[tuple[str, str, int, object, tuple[str, ...]]]


def _census(mw, families, checks) -> Instances:
    for group, stream in families(mw):
        for k, M in enumerate(stream):
            mw.is_connected(M)  # the census row's connected column
            yield group, f"{group}-{k:05d}", k, M, checks


# The census sizes keep a pass to one to three seconds, so a 45-second run
# times every check some 15 to 45 times, spread over the run, and reports
# the median of those executions.
#
# first sparse-paving (8, 4) classes: five positroids, then one
# non-positroid whose order search runs through all 7! orders
SP84_LIMIT = 6


def census_hpp(mw) -> Instances:
    """Lattice-path matroids with m + n <= 6 (624 of them) and all of
    sparse_paving_family(7, 3), whose 14 classes hold every Fails."""
    return _census(
        mw,
        lambda mw: (
            ("lpm6", (M for _, M in mw.lpm_family(6))),
            ("sp7-3", mw.sparse_paving_family(7, 3)),
        ),
        ("hpp", "rayleigh"),
    )


def census_structure(mw) -> Instances:
    """The 174 bicircular classes with at most 5 edges and the first
    sparse-paving (8, 4) classes."""
    return _census(
        mw,
        lambda mw: (
            ("bc5", (M for _, M in mw.bicircular_family(5))),
            ("sp8-4", mw.sparse_paving_family(8, 4, limit=SP84_LIMIT)),
        ),
        ("paving", "negcorr", "positroid", "balanced"),
    )


WORKLOADS: dict[str, Callable[[object], Instances]] = {
    "census-hpp": census_hpp,
    "census-structure": census_structure,
}
