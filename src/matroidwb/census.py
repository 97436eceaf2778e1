"""Census orchestration: stream a family, run checks per instance, write one
CSV row each plus witness JSON files for every Fails.

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
from typing import Iterator

from .core import Matroid, is_connected
from .analysis import (
    hpp_verdict,
    neg_corr_all_pairs,
    c_rayleigh_verdict,
    is_balanced,
    rayleigh_verdict,
    wagner_pair,
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

CSV_COLUMNS = [
    "id",
    "family",
    "params",
    "n",
    "r",
    "num_bases",
    "connected",
    "paving",
    "sparse_paving",
    "positroid",
    "neg_corr_all_pairs",
    "balanced",
    "rayleigh_outcome",
    "c_rayleigh_outcome",
    "hpp_outcome",
    "witness_ref",
]

# the columns that hold a Holds / Fails / Inconclusive outcome
OUTCOME_COLUMNS = (
    "neg_corr_all_pairs", "balanced", "rayleigh_outcome", "c_rayleigh_outcome", "hpp_outcome")

KNOWN_CHECKS = (
    "negcorr",
    "balanced",
    "rayleigh",
    "strong_rayleigh",
    "hpp",
    "positroid",
    "paving",
    "c_rayleigh",
)


def _parse_check(check: str) -> tuple[str, Fraction | None]:
    """A census check as (name, c).  Only c_rayleigh takes an argument,
    `c_rayleigh:c` with c a positive rational (8/7 when omitted)."""
    base, sep, arg = check.partition(":")
    if base not in KNOWN_CHECKS:
        raise ValueError(f"unknown check {check!r}")
    if base != "c_rayleigh":
        if sep:
            raise ValueError(f"check {base!r} takes no argument, got {check!r}")
        return base, None
    try:
        c = Fraction(arg or "8/7")
    except (ValueError, ZeroDivisionError):
        c = None
    if c is None or c <= 0:
        raise ValueError(f"c_rayleigh needs a positive rational c, got {check!r}")
    return base, c


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


def _instances(job: CensusJob) -> Iterator[tuple[str, str, Matroid]]:
    fam = job.family
    if fam == "lpm":
        total = int(job.params.get("max_total", 6))
        stream = lpm_family(
            total, limit=job.limit,
            connected_only=bool(job.params.get("connected_only", False)),
        )
        for k, (L, M) in enumerate(stream):
            yield (f"lpm{total}-{k:05d}", f"P={L.p};Q={L.q}", M)
    elif fam == "sparse_paving":
        n = int(job.params["n"])
        r = int(job.params["r"])
        for k, M in enumerate(sparse_paving_family(n, r, limit=job.limit)):
            yield (f"sp{n}-{r}-{k:05d}", f"n={n};r={r}", M)
    elif fam == "bicircular":
        e = int(job.params.get("max_edges", 6))
        for k, (G, M) in enumerate(bicircular_family(e, limit=job.limit)):
            edges = ",".join(f"{a}-{b}" for a, b in G.edges)
            yield (f"bc{e}-{k:05d}", f"v={G.v};edges={edges}", M)
    elif fam == "atlas":
        for k, name in enumerate(("U24", "MK4", "W3", "BK33", "TicTacToe")):
            yield (f"atlas-{k:05d}", name, named_atlas(name))
    else:
        raise ValueError(f"unknown family {job.family!r}")


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
    for base, c in checks:
        if base == "paving":
            row["paving"] = str(is_paving(M)).lower()
            row["sparse_paving"] = str(is_sparse_paving(M)).lower()
        elif base == "positroid":
            order = positroid_verdict(M)
            row["positroid"] = "found" if order is not None else "none"
        elif base == "negcorr":
            v = neg_corr_all_pairs(M)
            row["neg_corr_all_pairs"] = v.outcome
            if v.fails:
                witnesses.append(("negcorr", v))
        elif base == "balanced":
            v = is_balanced(M)
            row["balanced"] = v.outcome
            if v.fails:
                witnesses.append(("balanced", v))
        elif base in ("rayleigh", "c_rayleigh"):
            pair = wagner_pair(M)
            if pair is None:  # no pair lies in a common basis
                row[f"{base}_outcome"] = "Holds"
                continue
            if base == "rayleigh":
                v = rayleigh_verdict(basis_poly(M), pair, budget=budget, seed=seed)
            else:
                v = c_rayleigh_verdict(basis_poly(M), c, pair, budget=budget, seed=seed)
            row[f"{base}_outcome"] = v.outcome
            if v.fails:
                witnesses.append((base, v))
        elif base in ("hpp", "strong_rayleigh"):
            v = hpp_verdict(M, budget=budget, seed=seed)
            row["hpp_outcome"] = v.outcome
            if v.fails:
                witnesses.append(("hpp", v))
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
