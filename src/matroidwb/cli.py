"""Command-line workbench: construct matroids, check properties, run censuses,
dump polynomials, and replay the bundled verification fixtures.

`check --prop <name>` runs the library call that the table
:data:`matroidwb.census.CHECKS` gives the name, on the pair from `--pair` or
(without one) on all pairs; a census check is the same call without a pair.

Exit codes for `check`: 0 = Holds, 1 = Fails, 2 = Inconclusive, >2 = error.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import io as wio
from .analysis import neg_corr_all_pairs, nice_extension_report, strong_rayleigh_verdict
from .census import CHECKS, DEFAULT_C, FAMILY_PARAMS, CensusJob, refuse_below, run_census
from .classifiers import bicircular_family, lpm_family, positroid_verdict, sparse_paving_family
from .constructions import (
    MultiGraph,
    bicircular,
    graphic,
    lattice_path,
    lattice_path_pair_from_endpoints,
    named_atlas,
    principal_extension,
    principal_truncation,
    transversal,
    uniform,
    whirl,
)
from .core import contract, delete, direct_sum, dual, relax, relabel_map, two_sum
from .errors import MatroidError
from .poly import basis_poly, rayleigh_diff
from .verdicts import FAILS, HOLDS, INCONCLUSIVE, Verdict


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_matroid(path: str):
    return wio.parse_matroid(_read(path))


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.replace(",", " ").split()]


def _emit_matroid(M, out: str | None, comments=None) -> None:
    text = wio.format_matroid(M, comments=comments)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"n={M.n} r={M.r} bases={len(M.basis_masks)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args) -> int:
    kind = args.kind
    comments = None
    if kind == "uniform":
        M = uniform(args.k, args.n)
    elif kind == "lpm":
        if args.infile:
            M = lattice_path(wio.parse_lpm(_read(args.infile)))
        else:
            L = lattice_path_pair_from_endpoints(
                _int_list(args.lower), _int_list(args.upper)
            )
            M = lattice_path(L)
    elif kind == "graphic":
        M = graphic(wio.parse_graph(_read(args.infile)))
    elif kind == "bicircular":
        M = bicircular(wio.parse_graph(_read(args.infile)))
    elif kind == "transversal":
        M = transversal(wio.parse_setsystem(_read(args.infile)))
    elif kind == "whirl":
        M = whirl(args.r)
    elif kind == "atlas":
        M = named_atlas(args.name)
    elif kind == "dual":
        M = dual(_load_matroid(args.infile))
    elif kind == "2sum":
        M = two_sum(
            _load_matroid(args.infile), args.p, _load_matroid(args.infile2), args.q
        )
    elif kind == "minor":
        M = _load_matroid(args.infile)
        comments = []
        if args.contract:
            S = _int_list(args.contract)
            mapping = relabel_map(M.n, S)
            comments.append(f"contracted {sorted(S)}; old->new {mapping}")
            M = contract(M, S)
        if args.delete:
            S = _int_list(args.delete)
            mapping = relabel_map(M.n, S)
            comments.append(f"deleted {sorted(S)}; old->new {mapping}")
            M = delete(M, S)
    elif kind == "extension":
        M = principal_extension(_load_matroid(args.infile), _int_list(args.set))
    elif kind == "truncation":
        M = principal_truncation(_load_matroid(args.infile), _int_list(args.set))
    elif kind == "relax":
        M = relax(_load_matroid(args.infile), _int_list(args.set))
    else:  # pragma: no cover
        raise ValueError(kind)
    _emit_matroid(M, args.out, comments)
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    refuse_below("check", 0, seed=args.seed)
    refuse_below("check", 1, budget=args.budget)
    M = _load_matroid(args.matroid)
    prop, check = args.prop, CHECKS[args.prop]
    pair = tuple(_int_list(args.pair)) if args.pair else None
    if pair is not None and not check.takes_pair:
        takers = ", ".join(name for name, ch in CHECKS.items() if ch.takes_pair)
        raise ValueError(f"--prop {prop} takes no --pair; only {takers} take one")
    if pair is not None and (len(pair) != 2 or pair[0] == pair[1]
                             or not all(1 <= e <= M.n for e in pair)):
        raise ValueError(f"--pair needs two distinct elements of 1..{M.n}, got {args.pair!r}")
    start = time.perf_counter()
    result = check.call(M, pair, args.c, args.budget, args.seed)
    if isinstance(result, Verdict):
        wall_ms = int((time.perf_counter() - start) * 1000)
        payload = wio.verdict_to_json(
            result, prop, args.matroid, seed=args.seed, wall_ms=wall_ms
        )
        code = {HOLDS: 0, FAILS: 1, INCONCLUSIVE: 2}[result.outcome]
    else:  # a classifier: a bool, or a positroid order
        found = result is not None and result is not False
        payload = {"property": prop, "outcome": HOLDS if found else FAILS}
        if not isinstance(result, bool):
            payload.update(matroid_id=args.matroid, order=list(result) if found else None)
        code = 0 if found else 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        wio.dump_verdict_json(args.out, payload)
    return code


# ---------------------------------------------------------------------------
# poly


def cmd_poly(args) -> int:
    M = _load_matroid(args.matroid)
    f = basis_poly(M)
    if args.rayleigh:
        i, j = args.rayleigh
        f = rayleigh_diff(f, i, j)
    sys.stdout.write(wio.format_poly(f))
    return 0


# ---------------------------------------------------------------------------
# census


def cmd_census(args) -> int:
    params = {}
    for kv in (args.params or "").split(";"):
        if kv.strip():
            key, _, val = kv.partition("=")
            params[key.strip()] = val.strip()
    job = CensusJob(
        family=args.family,
        params=params,
        checks=[c.strip() for c in args.checks.split(",") if c.strip()],
        seed=args.seed,
        budget=args.budget,
        workers=args.workers,
        out_csv=args.out,
        witness_dir=args.witness_dir,
        limit=args.limit,
    )
    try:
        rows = run_census(job)
    except KeyboardInterrupt:
        kept = 0
        if os.path.exists(args.out):
            with open(args.out, newline="") as fh:
                kept = sum(1 for _ in csv.DictReader(fh))
        print(f"census stopped: {args.out} keeps {kept} rows; rerun the same command "
              "to resume it", file=sys.stderr)
        return 130
    fails = sum(1 for r in rows if FAILS in r.values())
    print(f"census: {len(rows)} instances, {fails} with Fails outcomes -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify-paper: one-shot reproduction of the anchored fixtures


EXAMPLE_BASES = [
    "125", "126", "135", "136", "145", "146", "156",
    "235", "236", "245", "246", "256", "345", "346", "356",
]
EXAMPLE_TRUNCATION = ["12", "13", "14", "15", "23", "24", "25", "34", "35"]
EXAMPLE_EXTENSION = EXAMPLE_BASES + [
    "127", "137", "147", "157", "237", "247", "257", "347", "357",
]


def _as_strings(M) -> list[str]:
    return sorted("".join(str(e) for e in sorted(b)) for b in M.bases)


def cmd_verify_paper(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
        if not ok:
            failures += 1

    M = lattice_path(lattice_path_pair_from_endpoints([1, 2, 5], [3, 5, 6]))
    report("example-bases", _as_strings(M) == sorted(EXAMPLE_BASES))

    tr = principal_truncation(M, [6])
    report("example-truncation", _as_strings(tr) == sorted(EXAMPLE_TRUNCATION))

    ext = principal_extension(M, [6])
    report("example-extension", _as_strings(ext) == sorted(EXAMPLE_EXTENSION))

    # loop invariance / coloop identities on the atlas, the sparse paving
    # classes of rank 3 on 6 elements and the bicircular graphs of <= 4 edges
    fixed = [named_atlas(name) for name in ("U24", "MK4", "W3", "BK33", "TicTacToe")]
    fixed += sparse_paving_family(6, 3)
    fixed += (Mb for _, Mb in bicircular_family(4))
    ok_loop = ok_coloop = True
    for Mr in fixed:
        f = basis_poly(Mr)
        with_loop = direct_sum(Mr, uniform(0, 1))
        if basis_poly(with_loop).terms != f.terms:
            ok_loop = False
        with_coloop = direct_sum(Mr, uniform(1, 1))
        g = basis_poly(with_coloop)
        e = Mr.n + 1
        pairs = [(i, j) for i in range(1, Mr.n + 1) for j in range(i + 1, Mr.n + 1)]
        for (i, j) in pairs[:3]:
            # x_e^2 times the difference without the coloop
            terms = rayleigh_diff(f, i, j).terms.items()
            if rayleigh_diff(g, i, j).terms != {(lin, sq | 1 << Mr.n): c for (lin, sq), c in terms}:
                ok_coloop = False
        if not rayleigh_diff(g, e, 1).is_zero():
            ok_coloop = False
    report("loop-invariance", ok_loop)
    report("coloop-identities", ok_coloop)

    report("mk4-not-positroid", positroid_verdict(named_atlas("MK4")) is None)
    # K4 with a loop at a vertex: n = 7, r = 4, 32 bases; the first of the
    # two non-positroids among the 2,429 graphs of bicircular_family(7)
    k4_loop = MultiGraph(
        v=4, edges=((1, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    )
    report("bicircular-not-positroid", positroid_verdict(bicircular(k4_loop)) is None)

    ok_lpm = True
    for _, Mi in lpm_family(5):
        if positroid_verdict(Mi) is None:
            ok_lpm = False
            break
    report("lpm-positroid-orders", ok_lpm)

    # every Rayleigh difference is nonnegative on real space with an exact
    # certificate: Brändén's criterion for stability, and stability gives
    # the half-plane property
    report(
        "lpm-stable-branden",
        all(strong_rayleigh_verdict(basis_poly(Mi), None, budget=2000).holds
            for _, Mi in lpm_family(5)),
    )

    ok_sp = True
    for n, r in ((5, 2), (6, 3), (7, 3)):
        for Mi in sparse_paving_family(n, r, limit=50):
            if not neg_corr_all_pairs(Mi).holds:
                ok_sp = False
    report("sparse-paving-negative-correlation", ok_sp)

    rep = nice_extension_report(M, range(1, 7))
    report(
        "nice-extension-system-F-full",
        rep["uniform_satisfies"] is False and rep["feasible"] is False,
        f"uniform 1/6 satisfies: {rep['uniform_satisfies']}, feasible: {rep['feasible']}",
    )
    rep6 = nice_extension_report(M, [6])
    report(
        "nice-extension-system-F-last",
        rep6["feasible"] and rep6["solution_verified"],
        f"solution: {rep6['solution']}",
    )

    T = named_atlas("TicTacToe")
    report("tictactoe-shape", (T.n, T.r) == (9, 3))

    print(f"{'ALL FIXTURES PASS' if failures == 0 else f'{failures} FIXTURES FAILED'}")
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="matroidwb")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a matroid and write its file")
    csub = c.add_subparsers(dest="kind", required=True)

    def with_out(p):
        p.add_argument("--out", help="output file (stdout when omitted)")
        return p

    p = with_out(csub.add_parser("uniform"))
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p = with_out(csub.add_parser("lpm"))
    p.add_argument("--lower", help="comma-separated l_1<..<l_r")
    p.add_argument("--upper", help="comma-separated u_1<..<u_r")
    p.add_argument("--in", dest="infile", help="file with `lpm <P> <Q>`")
    for kind in ("graphic", "bicircular", "transversal", "dual"):
        p = with_out(csub.add_parser(kind))
        p.add_argument("--in", dest="infile", required=True)
    p = with_out(csub.add_parser("whirl"))
    p.add_argument("r", type=int)
    p = with_out(csub.add_parser("atlas"))
    p.add_argument("name")
    p = with_out(csub.add_parser("2sum"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--in2", dest="infile2", required=True)
    p.add_argument("--q", type=int, required=True)
    p = with_out(csub.add_parser("minor"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--delete", help="comma-separated elements")
    p.add_argument("--contract", help="comma-separated elements")
    for kind in ("extension", "truncation", "relax"):
        p = with_out(csub.add_parser(kind))
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--set", required=True, help="comma-separated elements")

    k = sub.add_parser("check", help="run a property check; exit 0/1/2")
    k.add_argument("matroid")
    k.add_argument(
        "--prop",
        required=True,
        choices=list(CHECKS),
    )
    k.add_argument("--pair", help="comma-separated pair, e.g. 1,2")
    k.add_argument("--c", default=DEFAULT_C, help=f"constant for c_rayleigh (default {DEFAULT_C})")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--budget", type=int, default=100_000)
    k.add_argument("--out", help="also write the verdict JSON here")

    q = sub.add_parser("poly", help="dump the basis polynomial or a Rayleigh difference")
    q.add_argument("matroid")
    q.add_argument("--rayleigh", nargs=2, type=int, metavar=("I", "J"))

    s = sub.add_parser("census", help="run a family census to CSV + witnesses")
    s.add_argument("--family", required=True, choices=list(FAMILY_PARAMS))
    s.add_argument("--params", default="", help="semicolon-separated key=value")
    s.add_argument(
        "--checks", required=True,
        help="comma-separated checks; each is `check --prop <name>` without a pair "
        f"({', '.join(CHECKS)}; c_rayleigh:c sets c)",
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=100_000)
    s.add_argument(
        "--workers", type=int, default=1,
        help="processes that decide instances at once (default 1); rows are written in "
        "id order as they are decided, the same rows for any count",
    )
    s.add_argument("--limit", type=int, help="check only the first LIMIT instances (default: all)")
    s.add_argument("--out", default="census.csv")
    s.add_argument("--witness-dir", dest="witness_dir", default="witnesses")

    sub.add_parser("verify-paper", help="replay the bundled verification fixtures")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.command == "construct":
            return cmd_construct(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "poly":
            return cmd_poly(args)
        if args.command == "census":
            return cmd_census(args)
        if args.command == "verify-paper":
            return cmd_verify_paper(args)
        raise ValueError(args.command)  # pragma: no cover
    except (MatroidError, wio.ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
