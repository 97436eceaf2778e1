"""Census orchestration: stream a family, run checks per instance, write one
CSV row each plus witness JSON files for every Fails.

A census check is `matroidwb check --prop <name>` without a pair: both read
the table CHECKS, so a census cell is the outcome that command prints (for
the classifiers, their found/none or true/false).

Each row is written and flushed as soon as its instance is decided, after
`<csv>.job.json` and the CSV header, so a stopped census keeps its finished
rows. Run again, it resumes after the ids in the CSV, but only when
`<csv>.job.json` records the same job. Output is bit-identical for a fixed
(job, seed) regardless of worker count and of stops: instances carry
deterministic ids and per-instance seeds derived from the job seed by a
fixed counter scheme, and rows come back in id order.
"""
from __future__ import annotations

import csv
import json
import os
import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, islice
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


# the c of c_rayleigh when none is given: the constant Huh, Schroter and Wang
# conjecture for all matroids
DEFAULT_C = Fraction(8, 7)


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
    `c_rayleigh:c` with c a positive rational (DEFAULT_C when omitted)."""
    base, sep, arg = check.partition(":")
    if base not in CHECKS:
        raise ValueError(f"unknown check {check!r}")
    if base != "c_rayleigh":
        if sep:
            raise ValueError(f"check {base!r} takes no argument, got {check!r}")
        return base, None
    return base, _positive_c(arg or DEFAULT_C)


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


def refuse_below(who: str, low: int, **counts: int) -> None:
    """Refuse, by name, a count below low: a search seed below 0, or a
    budget, limit or worker count below 1."""
    for name, value in counts.items():
        if value < low:
            raise ValueError(f"{who} needs {name} >= {low}, got {value}")


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
    limit: int | None = None  # None: every instance
    parsed_checks: list[tuple[str, Fraction | None]] = field(init=False)

    def __post_init__(self):
        if not self.checks:
            raise ValueError("a census needs at least one check")
        refuse_below("a census", 0, seed=self.seed)
        refuse_below("a census", 1, budget=self.budget, workers=self.workers)
        if self.limit is not None:
            refuse_below("a census", 1, limit=self.limit)
        self.parsed_checks = [_parse_check(c) for c in self.checks]
        columns: dict[str, str] = {}
        for check, (name, _) in zip(self.checks, self.parsed_checks):
            column = CHECKS[name].column
            if column in columns:
                raise ValueError(
                    f"checks {columns[column]!r} and {check!r} both fill column {column!r}")
            columns[column] = check
        self.params = _parse_params(self.family, self.params)

    def record(self) -> dict:
        """The fields that decide the rows, as `<csv>.job.json` keeps them."""
        checks = [[name, c if c is None else str(c)] for name, c in self.parsed_checks]
        return dict(family=self.family, params=self.params, checks=checks,
                    seed=self.seed, budget=self.budget, limit=self.limit)


def _instances(job: CensusJob) -> Iterator[tuple[str, str, Matroid]]:
    """The first job.limit instances of the family, or all of them when it
    is None, as (id, params, M)."""
    fam, params = job.family, job.params
    if fam == "lpm":
        total = params["max_total"]
        prefix = f"lpm{total}"
        stream = ((f"P={L.p};Q={L.q}", M) for L, M in lpm_family(total))
    elif fam == "sparse_paving":
        n, r = params["n"], params["r"]
        prefix = f"sp{n}-{r}"
        stream = ((f"n={n};r={r}", M) for M in sparse_paving_family(n, r))
    elif fam == "bicircular":
        e = params["max_edges"]
        prefix = f"bc{e}"
        stream = ((f"v={G.v};edges=" + ",".join(f"{a}-{b}" for a, b in G.edges), M)
                  for G, M in bicircular_family(e))
    else:
        prefix = "atlas"
        stream = ((name, named_atlas(name)) for name in ("U24", "MK4", "W3", "BK33", "TicTacToe"))
    for k, (inst_params, M) in enumerate(islice(stream, job.limit)):
        yield (f"{prefix}-{k:05d}", inst_params, M)


def _instance_seed(job_seed: int, index: int) -> int:
    return job_seed + 1_000_003 * (index + 1)


def _run_instance(job: CensusJob, instance: tuple[int, str, str, Matroid]) -> dict:
    """The CSV row of the instance at this index of the family; a witness
    JSON is written for each Fails, timed over its own check."""
    index, inst_id, params, M = instance
    seed = _instance_seed(job.seed, index)
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(
        id=inst_id, family=job.family, params=params,
        n=str(M.n), r=str(M.r), num_bases=str(len(M.basis_masks)),
        connected=str(is_connected(M)).lower(),
    )
    refs = []
    for name, c in job.parsed_checks:
        check = CHECKS[name]
        start = time.perf_counter()
        result = check.call(M, None, c, job.budget, seed)
        row[check.column] = _cell(result)
        if isinstance(result, Verdict) and result.fails:
            wall_ms = int((time.perf_counter() - start) * 1000)
            ref = f"{inst_id}.{name}.witness.json"
            dump_verdict_json(os.path.join(job.witness_dir, ref),
                              verdict_to_json(result, name, inst_id, seed=seed, wall_ms=wall_ms))
            refs.append(ref)
    row["witness_ref"] = ";".join(refs)
    return row


def run_census(job: CensusJob) -> list[dict]:
    """Run the job, appending each row to job.out_csv as it is decided;
    returns every row of the CSV, those of an earlier run first."""
    rows: list[dict] = []
    job_file = job.out_csv + ".job.json"
    if os.path.exists(job.out_csv):
        if not os.path.exists(job_file):
            raise ValueError(f"{job.out_csv} has no {job_file}, so its job is unknown")
        with open(job_file) as fh:
            written = json.load(fh)
        for key, value in job.record().items():
            if written.get(key) != value:
                raise ValueError(f"{job.out_csv} holds another job: its {key} is "
                                 f"{written.get(key)!r}, this job's is {value!r}")
        with open(job.out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
    # the family takes its first step before any file is written, so a
    # family over its size cap leaves none
    instances = enumerate(_instances(job))
    first = list(islice(instances, 1))
    if not os.path.exists(job.out_csv):
        with open(job_file, "w") as fh:
            json.dump(job.record(), fh)
    os.makedirs(job.witness_dir, exist_ok=True)

    done_ids = {row["id"] for row in rows}
    todo = ((index, *instance) for index, instance in chain(first, instances)
            if instance[0] not in done_ids)
    run = partial(_run_instance, job)
    pool = nullcontext()
    if job.workers > 1:
        import multiprocessing  # only a census with workers pays for the import

        # the pool forks before the CSV is opened, so no worker holds its buffer
        # a worker ignores Ctrl-C, so only the coordinator stops, and its
        # pool ends the workers
        pool = multiprocessing.get_context("fork").Pool(
            job.workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))
    with pool, open(job.out_csv, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if fh.tell() == 0:
            writer.writeheader()
            fh.flush()
        for row in pool.imap(run, todo) if job.workers > 1 else map(run, todo):
            writer.writerow(row)
            fh.flush()
            rows.append(row)
    return rows
