"""Tests of the benchmark's own arithmetic and of its soundness gate.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""
import dataclasses
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import matroidwb as mw  # noqa: E402
from gate import check_hpp, check_negcorr, check_rayleigh, rayleigh_terms  # noqa: E402
from run import (  # noqa: E402
    Pass, count_failed, decided_frac, peak_rss_mb, percentile, reset_peak_rss, tail_level,
)
from workloads import _census  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
import hostclock  # noqa: E402


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, 0),  # outer
        ("b", 1.0, 5.0, 0, 0),  # child of outer
        ("c", 2.0, 3.0, 1, 0),  # grandchild
        ("b", 6.0, 8.0, 0, 0),  # second child of outer
    ]
    assert layer_totals(spans) == {"a": (1, 4.0), "b": (2, 5.0), "c": (1, 1.0)}


def test_tracer_nests_spans_of_a_synthetic_call():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    # clock reads: outer start 0, inner 1-2, inner 3-4, outer end 5
    assert [(s[0], s[1], s[2], s[3]) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0), ("inner", 3.0, 4.0, 0),
    ]
    assert layer_totals(tracer.spans) == {"outer": (1, 3.0), "inner": (2, 2.0)}


def test_tracer_patches_every_binding_and_restores_them():
    original = mw.core.connected_components
    init = mw.core.Matroid.__init__
    tracer = Tracer()
    with tracer:
        patched = mw.core.connected_components
        assert patched is not original
        # bound by `from .core import ...` in analysis and in the package
        assert mw.analysis.connected_components is patched
        assert mw.connected_components is patched
        mw.hpp_verdict(mw.uniform(2, 4), budget=2048)
    assert mw.analysis.connected_components is original
    assert mw.core.Matroid.__init__ is init
    layers = layer_totals(tracer.spans)
    assert layers["core.structure"][0] >= 1
    assert layers["analysis.verdict"][0] >= 1
    # the verdict's structural calls are its children, not top-level spans
    verdict = next(k for k, s in enumerate(tracer.spans) if s[0] == "analysis.verdict")
    assert any(s[3] == verdict and s[0] == "core.structure" for s in tracer.spans)


def test_tracer_times_each_family_next_as_enumeration():
    tracer = Tracer()
    with tracer:
        members = list(mw.sparse_paving_family(5, 2, limit=3))
    assert len(members) == 3
    calls, _ = layer_totals(tracer.spans)["classifiers.enumerate"]
    assert calls == 4  # three yields, then the next() that runs it to its end


# ---------------------------------------------------------------------------
# host clock


def test_host_clock_scales_work_and_leaves_out_the_reference(monkeypatch):
    now = [0.0]
    ref = [hostclock.NOMINAL_S]  # CPU time of one reference_work call

    def reference_work():
        now[0] += ref[0]

    monkeypatch.setattr(hostclock.time, "thread_time", lambda: now[0])
    monkeypatch.setattr(hostclock, "reference_work", reference_work)
    clock = hostclock.HostClock(window=2)
    assert clock.factor == 1.0 and clock() == 0.0
    now[0] += 1.0  # work at nominal speed
    assert clock() == pytest.approx(1.0)
    ref[0] = 3 * hostclock.NOMINAL_S  # the host slows down threefold
    clock.sample()  # factor from the window's mean: 2 / (1 + 3)
    assert clock.factor == pytest.approx(0.5)
    assert clock() == pytest.approx(1.0)  # the handler's time is left out
    now[0] += 3.0
    assert clock() == pytest.approx(2.5)
    clock.sample()  # the window now holds two slow samples
    assert clock.factor == pytest.approx(1 / 3)
    now[0] += 3.0
    assert clock() == pytest.approx(3.5)
    assert clock.raw() == pytest.approx(7.0)


def test_host_clock_samples_only_inside_with():
    clock = hostclock.HostClock(interval=0.005)
    with clock:
        t = time.thread_time()
        while time.thread_time() - t < 0.1:
            pass
    taken = clock.sampled
    assert taken >= 5
    t = time.thread_time()
    while time.thread_time() - t < 0.05:
        pass
    assert clock.sampled == taken
    assert 0 < clock.reference_s < 0.1


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("n, level", [(10, 50), (20, 50), (25, 60), (100, 90), (999, 98), (1000, 99), (4136, 99)])
def test_tail_level_is_highest_integer_percentile_with_ten_beyond(n, level):
    assert tail_level(n) == level
    if level > 50:
        assert n * (100 - level) / 100 >= 10
    if level < 99 and n >= 20:
        assert n * (100 - (level + 1)) / 100 < 10


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 4.0, 2.0, 8.0, 3.0]
    for q in (0, 50, 60, 99, 100):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))


# ---------------------------------------------------------------------------
# other end-to-end metrics and seeds


def test_decided_frac_counts_holds_and_fails_over_checks():
    outcomes = ["Holds", "Holds (sparse)", "Fails", "Inconclusive", "Error"]
    # a check that raised is not decided
    assert decided_frac(outcomes) == 3 / 5


def test_peak_rss_follows_the_work_after_the_reset():
    assert reset_peak_rss()
    before = peak_rss_mb()
    block = np.ones(64 * 2**20 // 8)  # 64 MB, every page written
    grown = peak_rss_mb()
    del block
    assert grown - before > 48
    assert reset_peak_rss()
    assert peak_rss_mb() < grown - 48


def test_census_instances_are_indexed_per_family_like_census_jobs():
    M = mw.uniform(2, 4)
    families = lambda mw: (("a", iter([M, M])), ("b", iter([M])))
    rows = list(_census(mw, families, ("paving",)))
    assert [(group, index) for group, _, index, _, _ in rows] == [("a", 0), ("a", 1), ("b", 0)]


# ---------------------------------------------------------------------------
# soundness gate


def _pass(fingerprints):
    p = Pass()
    p.keys = [("g", "m", "hpp"), ("g", "m", "rayleigh")]
    p.fingerprints = list(fingerprints)
    return p


def test_an_execution_that_does_not_reproduce_the_gated_one_fails():
    passes = [_pass("ab"), _pass("ab"), _pass("ac")]
    reasons = {("g", "m", "hpp"): None, ("g", "m", "rayleigh"): None}
    failed = count_failed(passes, reasons)
    # the third pass's rayleigh differs from the gated first execution
    assert failed == {("g", "m", "rayleigh"): 1}
    assert reasons[("g", "m", "rayleigh")] and reasons[("g", "m", "hpp")] is None


def test_a_key_that_failed_the_gate_fails_in_every_pass():
    passes = [_pass("ab"), _pass("ab")]
    reasons = {("g", "m", "hpp"): None, ("g", "m", "rayleigh"): "witness point gives 0 >= 0"}
    assert count_failed(passes, reasons) == {("g", "m", "rayleigh"): 2}


@pytest.fixture(scope="module")
def hpp_fails():
    for M in mw.sparse_paving_family(7, 3):
        v = mw.hpp_verdict(M, budget=20_000, seed=0)
        if v.fails:
            return M, v
    pytest.fail("no hpp Fails in sparse_paving_family(7, 3)")


def test_gate_accepts_an_untampered_witness(hpp_fails):
    M, v = hpp_fails
    assert check_hpp(M, v) is None


def test_gate_rejects_a_tampered_witness_point(hpp_fails):
    M, v = hpp_fails
    w = v.witness
    for point in (
        tuple(Fraction(1) for _ in w.point),  # all ones: Delta there is >= 0
        tuple(x * 2 for x in w.point),  # Delta is homogeneous: the value moves
    ):
        tampered = dataclasses.replace(v, witness=dataclasses.replace(w, point=point))
        assert check_hpp(M, tampered) is not None


def test_gate_rejects_a_tampered_witness_value(hpp_fails):
    M, v = hpp_fails
    tampered = dataclasses.replace(
        v, witness=dataclasses.replace(v.witness, value=v.witness.value - 1)
    )
    assert "!=" in check_hpp(M, tampered)


def test_gate_rejects_a_coefficient_certificate_for_a_negative_difference(hpp_fails):
    M, v = hpp_fails
    pair = v.diagnostics["pair"]
    claim = mw.Verdict(
        "Holds", certificate=mw.Certificate("CoefficientNonneg"), diagnostics={"pair": pair}
    )
    assert rayleigh_terms(M.basis_masks, *pair)  # the difference is not zero
    assert "negative coefficient" in check_rayleigh(M, claim)


def test_gate_rejects_a_tampered_negcorr_witness():
    M = mw.uniform(2, 4)
    claim = mw.Verdict(
        "Fails", witness=mw.Witness(value=Fraction(-1)), diagnostics={"pair": (1, 2)}
    )
    assert check_negcorr(M, claim) is not None


@pytest.mark.parametrize("name", ["MK4", "W3", "BK33", "TicTacToe"])
def test_rebuilt_difference_matches_the_library(name):
    M = mw.named_atlas(name)
    for i, j in ((1, 2), (1, M.n), (2, 3)):
        assert rayleigh_terms(M.basis_masks, i, j) == mw.rayleigh_diff(mw.basis_poly(M), i, j).terms
