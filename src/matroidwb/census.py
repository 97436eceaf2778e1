"""Census orchestration: stream a family, run checks per instance, write one
CSV row each plus witness JSON files for every Fails.

A census check is `matroidwb check --prop <name>` without a pair: both read
the table CHECKS, so a census cell is the outcome that command prints (for
the classifiers, their found/none or true/false).

Output is bit-identical for a fixed (job, seed) regardless of worker count:
instances carry deterministic ids and per-instance seeds derived from the job
seed by a fixed counter scheme, and the coordinator writes rows in id order.
"""
from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .core import Matroid, is_connected
from .analysis import (
    c_rayleigh_verdict,
    hpp_verdict,
    is_balanced,
    neg_corr,
    neg_corr_all_pairs,
    rayleigh_verdict,
    strong_rayleigh_verdict,
)
from .classifiers import (
    bicircular_family,
    is_paving,
    is_sparse_paving,
    lpm_family,
    positroid_verdict,
    sparse_paving_family,
)
from .constructions import named_atlas
from .poly import basis_poly
from .io import dump_verdict_json, verdict_to_json
from .verdicts import Verdict


def _positive_c(c) -> Fraction:
    """The c of c_rayleigh: a positive rational, given as one or as a string."""
    try:
        value = Fraction(c)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0:
        raise ValueError(f"c_rayleigh needs a positive rational c, got {c!r}")
    return value


class Check(NamedTuple):
    column: str  # the census column it fills
    takes_pair: bool
    # (M, pair, c, budget, seed) -> a Verdict, or for the classifiers a
    # positroid order (None when there is none) or a bool; pair=None means
    # all pairs, and only c_rayleigh reads c (a rational or its string)
    call: Callable


# the meaning of each property name, for `check --prop` and the census alike
CHECKS = {
    "paving": Check("paving", False, lambda M, *_: is_paving(M)),
    "sparse_paving": Check("sparse_paving", False, lambda M, *_: is_sparse_paving(M)),
    "positroid": Check("positroid", False, lambda M, *_: positroid_verdict(M)),
    "negcorr": Check(
        "neg_corr_all_pairs", True,
        lambda M, pair, *_: neg_corr(M, *pair) if pair else neg_corr_all_pairs(M)),
    "balanced": Check("balanced", False, lambda M, *_: is_balanced(M)),
    "rayleigh": Check(
        "rayleigh_outcome", True,
        lambda M, pair, c, budget, seed: rayleigh_verdict(basis_poly(M), pair, budget, seed)),
    "c_rayleigh": Check(
        "c_rayleigh_outcome", True,
        lambda M, pair, c, budget, seed: c_rayleigh_verdict(
            basis_poly(M), _positive_c(c), pair, budget, seed)),
    "strong_rayleigh": Check(
        "strong_rayleigh_outcome", True,
        lambda M, pair, c, budget, seed: strong_rayleigh_verdict(
            basis_poly(M), pair, budget, seed)),
    "hpp": Check(
        "hpp_outcome", False, lambda M, pair, c, budget, seed: hpp_verdict(M, budget, seed)),
}

CSV_COLUMNS = [
    "id",
    "family",
    "params",
    "n",
    "r",
    "num_bases",
    "connected",
    *(check.column for check in CHECKS.values()),
    "witness_ref",
]

def _cell(result) -> str:
    """The census cell of a check's result."""
    if isinstance(result, Verdict):
        return result.outcome
    if isinstance(result, bool):
        return str(result).lower()
    return "found" if result is not None else "none"


def _parse_check(check: str) -> tuple[str, Fraction | None]:
    """A census check as (name, c).  Only c_rayleigh takes an argument,
    `c_rayleigh:c` with c a positive rational (8/7 when omitted)."""
    base, sep, arg = check.partition(":")
    if base not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    if base != "c_rayleigh":
        if sep:
            raise ValueError(f"check {base!r} takes no argument, got {check!r}")
        return base, None
    return base, _positive_c(arg or "8/7")


# each family's integer params with their defaults (None: required)
FAMILY_PARAMS = {
    "lpm": {"max_total": 6},
    "sparse_paving": {"n": None, "r": None},
    "bicircular": {"max_edges": 6},
    "atlas": {},
}


def _parse_params(family: str, params: dict) -> dict[str, int]:
    """The family's params as integers, its defaults filled in."""
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    known = FAMILY_PARAMS[family]
    out = dict(known)
    for key, val in params.items():
        if key not in known:
            raise ValueError(
                f"family {family!r} has no param {key!r}; its params: {', '.join(known) or 'none'}")
        message = f"param {key!r} needs an integer, got {val!r}"
        if type(val) is not int and not isinstance(val, str):
            raise ValueError(message)
        try:
            out[key] = int(val)
        except ValueError:
            raise ValueError(message) from None
    missing = [key for key, val in out.items() if val is None]
    if missing:
        raise ValueError(f"family {family!r} needs param(s) {', '.join(missing)}")
    return out


@dataclass
class CensusJob:
    family: str
    params: dict
    checks: list[str]
    seed: int = 0
    budget: int = 100_000
    workers: int = 1
    out_csv: str = "census.csv"
    witness_dir: str = "witnesses"
    limit: int = 1000
    parsed_checks: list[tuple[str, Fraction | None]] = field(init=False)

    def __post_init__(self):
        if not self.checks:
            raise ValueError("a census needs at least one check")
        if self.budget <= 0 or self.limit <= 0:
            raise ValueError("budgets must be positive")
        self.parsed_checks = [_parse_check(c) for c in self.checks]
        self.params = _parse_params(self.family, self.params)


def _instances(job: CensusJob) -> Iterator[tuple[str, str, Matroid]]:
    fam, params = job.family, job.params
    if fam == "lpm":
        total = params["max_total"]
        for k, (L, M) in enumerate(lpm_family(total, limit=job.limit)):
            yield (f"lpm{total}-{k:05d}", f"P={L.p};Q={L.q}", M)
    elif fam == "sparse_paving":
        n, r = params["n"], params["r"]
        for k, M in enumerate(sparse_paving_family(n, r, limit=job.limit)):
            yield (f"sp{n}-{r}-{k:05d}", f"n={n};r={r}", M)
    elif fam == "bicircular":
        e = params["max_edges"]
        for k, (G, M) in enumerate(bicircular_family(e, limit=job.limit)):
            edges = ",".join(f"{a}-{b}" for a, b in G.edges)
            yield (f"bc{e}-{k:05d}", f"v={G.v};edges={edges}", M)
    else:
        for k, name in enumerate(("U24", "MK4", "W3", "BK33", "TicTacToe")):
            yield (f"atlas-{k:05d}", name, named_atlas(name))


def _instance_seed(job_seed: int, index: int) -> int:
    return job_seed + 1_000_003 * (index + 1)


def _run_instance(payload) -> dict:
    (inst_id, params, n, masks, checks, budget, seed, family) = payload
    M = Matroid(n, masks)
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        id=inst_id, family=family, params=params,
        n=str(M.n), r=str(M.r), num_bases=str(len(M.basis_masks)),
        connected=str(is_connected(M)).lower(),
    )
    witnesses = []
    start = time.perf_counter()
    for name, c in checks:
        check = CHECKS[name]
        result = check.call(M, None, c, budget, seed)
        row[check.column] = _cell(result)
        if isinstance(result, Verdict) and result.fails:
            witnesses.append((name, result))
    wall_ms = int((time.perf_counter() - start) * 1000)
    return {
        "row": row,
        "witnesses": [
            verdict_to_json(v, prop, inst_id, seed=seed, wall_ms=wall_ms)
            for prop, v in witnesses
        ],
    }


def run_census(job: CensusJob) -> list[dict]:
    """Run the job; returns the row dicts (also written to job.out_csv)."""
    done_ids: set[str] = set()
    existing_rows: list[dict] = []
    if os.path.exists(job.out_csv):
        with open(job.out_csv, newline="") as fh:
            for row in csv.DictReader(fh):
                done_ids.add(row["id"])
                existing_rows.append(row)

    payloads = []
    for index, (inst_id, params, M) in enumerate(_instances(job)):
        if inst_id in done_ids:
            continue
        payloads.append(
            (
                inst_id, params, M.n, M.basis_masks, tuple(job.parsed_checks),
                job.budget, _instance_seed(job.seed, index), job.family,
            )
        )

    if job.workers > 1 and len(payloads) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(job.workers) as pool:
            results = list(pool.imap(_run_instance, payloads, chunksize=1))
    else:
        results = [_run_instance(p) for p in payloads]

    os.makedirs(job.witness_dir, exist_ok=True)
    new_rows = []
    for payload, res in zip(payloads, results):
        row = res["row"]
        refs = []
        for k, wjson in enumerate(res["witnesses"]):
            ref = f"{row['id']}.{wjson['property']}.witness.json"
            dump_verdict_json(os.path.join(job.witness_dir, ref), wjson)
            refs.append(ref)
        row["witness_ref"] = ";".join(refs)
        new_rows.append(row)

    write_header = not os.path.exists(job.out_csv)
    with open(job.out_csv, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if write_header:
            writer.writeheader()
        for row in new_rows:
            writer.writerow(row)
            fh.flush()
    return existing_rows + new_rows
