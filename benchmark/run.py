"""Timing harness for matroidwb.

    python3 benchmark/run.py --workload census-hpp --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One run:

1. launches fresh interpreters that import ``matroidwb`` and then the lazily
   imported ``scipy.optimize`` (the set-up time, median of SETUP_LAUNCHES);
2. replays ``verify-paper`` once and warms up the search (so no timed search
   pays for the scipy import);
3. runs passes over the workload as a closed loop with one client until
   ``--seconds`` would be exceeded, timing every property check from outside
   and every instance's time outside its checks (enumeration or build).
   Each check and each instance is reported at its median over the passes;
   ``workload_cpu_s`` is the sum of those medians;
4. passes the first pass's results through the soundness gate and requires
   every later pass to reproduce them exactly.

Times are read from a :class:`hostclock.HostClock`: the CPU time of the
thread doing the work, corrected for the speed of a shared host by a fixed
reference work timed every few hundredths of a second while the work runs.
It runs in the benchmark's thread for checks, instances and layer spans, and
in the launched interpreter's main thread for set-up (numpy's BLAS threads
start during its import and would add their own start-up).  The work is
single-threaded and never waits, so its CPU time is its latency on an idle
machine; the correction scales it to a host of fixed speed, because the
virtual CPU of a shared host runs the same work up to twice as slowly for
minutes at a time.  Uncorrected CPU times, the reference times and elapsed
times are kept in the report line.

With ``--trace 1`` the passes after the first alternate traced and untraced,
and the per-layer metrics replace the end-to-end ones.  The second-to-last line
of output is a JSON report (environment, outcome table, notes); the last
line is the result object.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_LAUNCHES = 9
SETUP_CODE = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
from hostclock import HostClock
with HostClock() as clock:
    c0, t0 = clock(), time.perf_counter()
    import matroidwb
    c1, t1 = clock(), time.perf_counter()
    import scipy.optimize
    c2, t2 = clock(), time.perf_counter()
print(json.dumps({"matroidwb": c1 - c0, "scipy": c2 - c1, "wall": t2 - t0,
                  "file": matroidwb.__file__}))
"""

# Rows of the roadmap's baseline table that a workload overlaps:
# (outcome-table key, baseline outcome counts, what).
BASELINE = {
    "census-hpp": [
        ("sp7-3:hpp", {"Fails": 5, "Inconclusive": 6, "Holds": 3},
         "sparse_paving_family(7,3) hpp outcomes, single-pair mode"),
    ],
}


def tail_level(samples: int) -> int:
    """The highest integer percentile with at least 10 samples beyond it (the
    median when there are fewer than 20)."""
    return max(50, 100 - -(-1000 // samples))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# environment and set-up


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
        # an SDP backend changes the sos tier and so decided_frac: runs that
        # differ here are not comparable
        "sdp_backend_cvxpy": importlib.util.find_spec("cvxpy") is not None,
    }


def measure_setup() -> dict[str, float]:
    """Main-thread corrected CPU times of the launched interpreters' imports,
    median over SETUP_LAUNCHES, and the median elapsed time for the report."""
    runs = []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        rec = json.loads(out.stdout.strip().splitlines()[-1])
        if not Path(rec["file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported matroidwb from {rec['file']}, not {SRC}")
        runs.append(rec)
    return {
        "setup_s": statistics.median(r["matroidwb"] + r["scipy"] for r in runs),
        "setup.import_matroidwb_s": statistics.median(r["matroidwb"] for r in runs),
        "setup.import_scipy_s": statistics.median(r["scipy"] for r in runs),
        "wall_s": statistics.median(r["wall"] for r in runs),
    }


def reset_peak_rss() -> bool:
    """Lower the process's resident-set high-water mark to its current RSS
    (Linux 4.0 and later), so the peak read afterwards belongs to what runs
    after the reset, not to imports or warm-up that ran before."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """The high-water mark of the resident set since the last reset."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def verify_paper(mw) -> tuple[bool, str]:
    from matroidwb.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["verify-paper"])
    lines = buf.getvalue().splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS"))
    failed = sum(1 for line in lines if line.startswith("FAIL"))
    return rc == 0 and failed == 0 and passed >= 11, f"{passed}/{passed + failed}"


def warm_up(mw) -> None:
    """A search that reaches the L-BFGS stage on a census-sized difference
    (U(3, 6) is Rayleigh, so no witness stops it early): scipy.optimize is
    imported and initialised before timing."""
    diff = mw.rayleigh_diff(mw.basis_poly(mw.uniform(3, 6)), 1, 2)
    mw.counterexample_search(diff, budget=4096, seed=0)


# ---------------------------------------------------------------------------
# passes


class Pass:
    """One pass over the workload.  A check's key is (group, instance, check),
    and each key is executed once per pass."""

    def __init__(self):
        self.wall = 0.0  # elapsed
        self.cpu = 0.0  # corrected
        self.raw_cpu = 0.0  # uncorrected
        self.reference_ms = 0.0  # mean time of the host clock's reference work
        self.keys: list[tuple[str, str, str]] = []
        self.latencies: list[float] = []
        self.fingerprints: list = []
        self.errors: list[str | None] = []
        self.results: list = []  # (matroid, result) per check, first pass only
        # per instance visit, its time outside the checks: enumeration or
        # build, and the census row's connected column
        self.overheads: list[tuple[tuple[str, str], float]] = []


def run_pass(mw, instances, seed: int, keep_results: bool, clock, tracer=None) -> Pass:
    from matroidwb.census import _instance_seed
    from workloads import CHECKS, fingerprint

    p = Pass()
    sampled, sampled_s = clock.sampled, clock.sampled_s
    elapsed = time.perf_counter()
    raw = clock.raw()
    start = mark = clock()
    for group, inst, index, M, checks in instances(mw):
        s = _instance_seed(seed, index)
        in_checks = 0.0
        for check in checks:
            if tracer is not None:
                tracer.request = len(p.keys)
            t0 = clock()
            try:
                result, error = CHECKS[check](mw, M, s), None
            except Exception:  # a check that raises is counted as failed
                result, error = None, traceback.format_exc(limit=3)
            latency = clock() - t0
            in_checks += latency
            p.keys.append((group, inst, check))
            p.latencies.append(latency)
            p.errors.append(error)
            p.fingerprints.append(None if error else fingerprint(result))
            if keep_results:
                p.results.append((M, result))
            if tracer is not None:
                tracer.request = -1
        now = clock()
        p.overheads.append(((group, inst), now - mark - in_checks))
        mark = now
    p.cpu = clock() - start
    p.raw_cpu = clock.raw() - raw
    p.wall = time.perf_counter() - elapsed
    if clock.sampled > sampled:
        p.reference_ms = (clock.sampled_s - sampled_s) / (clock.sampled - sampled) * 1e3
    p.overheads.append((("", "end"), start + p.cpu - mark))  # the last next()
    return p


def gate_first_pass(first: Pass) -> dict[tuple[str, str, str], str | None]:
    """Per check key: None, or why its first execution counts as failed."""
    from gate import GATES

    reasons = {}
    for k, key in enumerate(first.keys):
        M, result = first.results[k]
        if first.errors[k] is not None:
            reasons[key] = "raised: " + first.errors[k].strip().splitlines()[-1]
            continue
        try:
            reasons[key] = GATES[key[2]](M, result)
        except Exception as exc:  # a claim the gate cannot even read
            reasons[key] = f"gate error {type(exc).__name__}: {exc}"
    return reasons


def count_failed(passes, reasons) -> Counter:
    """Failed executions per key: the key failed the gate, or the execution
    did not reproduce the gated one exactly."""
    first = passes[0]
    gated = {key: k for k, key in enumerate(first.keys)}
    failed: Counter = Counter()
    unreproduced = set()
    for p in passes:
        for key, fp in zip(p.keys, p.fingerprints):
            k = gated.get(key)
            if k is None or fp != first.fingerprints[k]:
                unreproduced.add(key)
            elif not reasons[key]:
                continue
            failed[key] += 1
    for key in unreproduced:
        reasons[key] = reasons.get(key) or "not reproduced by a later execution"
    return failed


def timed_passes(mw, instances, seed: int, seconds: float, clock, tracer=None):
    """Passes while the next one, assumed as long as the last, still ends
    within ``seconds``.  The first pass is untraced and kept for the gate.
    With a tracer, later passes alternate traced and untraced, starting
    traced; at least one traced pass runs.  Returns the passes and, per
    traced pass, (wall, layer totals, result counts)."""
    from tracing import layer_totals

    start = time.perf_counter()
    passes = [run_pass(mw, instances, seed, keep_results=True, clock=clock)]
    layer_runs = []
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall > seconds and (tracer is None or layer_runs):
            break
        if tracer is None or len(passes) % 2 == 0:
            passes.append(run_pass(mw, instances, seed, keep_results=False, clock=clock))
            continue
        tracer.reset()
        with tracer:
            passes.append(
                run_pass(mw, instances, seed, keep_results=False, clock=clock, tracer=tracer))
        layer_runs.append((passes[-1].cpu, layer_totals(tracer.spans), Counter(tracer.counts)))
    return passes, layer_runs


# ---------------------------------------------------------------------------
# metrics


def median_per_key(timed) -> dict:
    """Per key, the median of its times.  Every pass repeats the same work
    with the same seeds, so the executions of one key differ only by noise;
    with the host's speed corrected, the median of a key's executions varies
    less from run to run than their fastest, which follows the noise of
    whichever execution came out lowest."""
    times: dict = defaultdict(list)
    for key, t in timed:
        times[key].append(t)
    return {key: statistics.median(ts) for key, ts in times.items()}


def check_latencies(passes) -> dict:
    return median_per_key((k, x) for p in passes for k, x in zip(p.keys, p.latencies))


def decided_frac(outcomes) -> float:
    """(Holds + Fails) / checks; a check that raised counts as undecided."""
    from workloads import DECIDED

    outcomes = list(outcomes)
    return sum(1 for o in outcomes if o in DECIDED) / len(outcomes)


def end_to_end(passes, setup, attempted: int, failed: int, peak_mb: float) -> dict:
    lat = list(check_latencies(passes).values())
    overheads = median_per_key(o for p in passes for o in p.overheads)
    return {
        "setup_s": (setup["setup_s"], "s"),
        "workload_cpu_s": (sum(lat) + sum(overheads.values()), "s"),
        "check_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "check_tail_ms": (percentile(lat, tail_level(len(lat))) * 1e3, "ms"),
        "decided_frac": (decided_frac(_outcomes(passes[0]).values()), "ratio"),
        "sound_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(passes, layer_runs, setup) -> dict:
    from tracing import layer_names

    k = len(layer_runs)
    calls: Counter = Counter()
    selfs: dict[str, list[float]] = defaultdict(list)
    counts: Counter = Counter()
    for _, totals, cnt in layer_runs:
        counts.update(cnt)
        for layer in layer_names():
            c, s = totals.get(layer, (0, 0.0))
            calls[layer] += c
            selfs[layer].append(s)
    out = {}
    for layer in layer_names():
        out[f"{layer}.calls"] = (calls[layer] / k, "count")
        out[f"{layer}.self_s"] = (statistics.median(selfs[layer]), "s")
    search_calls = calls["analysis.search"]
    search_self = sum(selfs["analysis.search"])
    out["poly.diff_terms"] = (counts["poly.diff_terms"] / k, "count")
    out["analysis.search.evals"] = (counts["search.evals"] / k, "count")
    out["analysis.search.evals_per_s"] = (
        counts["search.evals"] / search_self if search_self else 0.0, "1/s")
    out["analysis.search.witness_rate"] = (
        counts["search.witnesses"] / search_calls if search_calls else 0.0, "ratio")
    out["sos.cert_rate"] = (
        counts["sos.certs"] / calls["sos"] if calls["sos"] else 0.0, "ratio")
    # traced passes are the odd ones; the first pass runs cold, so it is the
    # untraced reference only when no other untraced pass fits
    untraced = passes[2::2] or passes[:1]
    out["tracing_overhead_s"] = (
        statistics.median(c for c, _, _ in layer_runs)
        - statistics.median(p.cpu for p in untraced), "s")
    out["setup.import_matroidwb_s"] = (setup["setup.import_matroidwb_s"], "s")
    out["setup.import_scipy_s"] = (setup["setup.import_scipy_s"], "s")
    return out


def _outcomes(first: Pass) -> dict[tuple[str, str, str], str]:
    from workloads import outcome

    out = {}
    for k, key in enumerate(first.keys):
        out[key] = "Error" if first.errors[k] else outcome(key[2], first.results[k][1])
    return out


def outcome_table(first: Pass) -> dict[str, dict[str, int]]:
    """Outcome counts per family:check."""
    table: dict[str, Counter] = defaultdict(Counter)
    for (group, _, check), o in _outcomes(first).items():
        table[f"{group}:{check}"][o] += 1
    return {k: dict(sorted(v.items())) for k, v in sorted(table.items())}


def baseline_notes(workload: str, table) -> list[str]:
    notes = []
    for key, want, what in BASELINE.get(workload, []):
        got = table.get(key, {})
        verdict = "agrees" if got == want else "DISAGREES"
        notes.append(f"baseline {want} {what}; measured {got}: {verdict}")
    return notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "matroidwb" / "__init__.py").is_file():
        print(f"error: no matroidwb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matroidwb as mw

    phase = {}
    t = time.perf_counter()
    setup = measure_setup()
    phase["setup_launches_s"] = time.perf_counter() - t
    for name in ("setup.import_matroidwb_s", "setup.import_scipy_s"):
        print(f"{name} {setup[name]:.4f} s")
    env = environment(args.seed)
    t = time.perf_counter()
    paper_ok, paper_score = verify_paper(mw)
    warm_up(mw)
    phase["verify_warmup_s"] = time.perf_counter() - t

    from hostclock import HostClock

    clock = HostClock()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(clock=clock)
    instances = WORKLOADS[args.workload]
    rss_reset = reset_peak_rss()
    with clock:
        passes, layer_runs = timed_passes(mw, instances, args.seed, args.seconds, clock, tracer)
    peak_mb = peak_rss_mb()

    first = passes[0]
    t = time.perf_counter()
    reasons = gate_first_pass(first)
    phase["gate_s"] = time.perf_counter() - t
    failures = count_failed(passes, reasons)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(failures.values())

    if args.trace:
        metrics = per_layer(passes, layer_runs, setup)
    else:
        metrics = end_to_end(passes, setup, attempted, failed, peak_mb)
    table = outcome_table(first)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "verify_paper": paper_score,
        "passes": len(passes),
        "traced_passes": len(layer_runs),
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "pass_cpu_s": [round(p.cpu, 4) for p in passes],
        "pass_raw_cpu_s": [round(p.raw_cpu, 4) for p in passes],
        "pass_reference_ms": [round(p.reference_ms, 4) for p in passes],
        "setup_wall_s": round(setup["wall_s"], 4),
        "peak_rss_reset": rss_reset,
        "checks_per_pass": len(first.latencies),
        "tail_percentile": tail_level(len(first.keys)),
        "outcomes": table,
        "failed_checks": [f"{'/'.join(key)}: {reasons[key]}" for key in list(failures)[:20]],
        "notes": baseline_notes(args.workload, table),
        "phase_s": {k: round(v, 3) for k, v in phase.items()},
    }
    print("report " + json.dumps(report, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**report, "metrics": metrics}, indent=1, sort_keys=True) + "\n")
    if tracer is not None:  # spans of the last traced pass
        with open(out.with_suffix(".spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    result = {
        "correct": paper_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
