"""Census orchestration: the CSV does not depend on the worker count, each
check writes its own outcome column, and a bad check is refused when the job
is made."""
from collections import Counter

import pytest

from matroidwb.census import CensusJob, run_census


@pytest.mark.parametrize(
    "family, params", [("lpm", {"max_total": 4}), ("bicircular", {"max_edges": 3})])
def test_one_and_two_workers_write_identical_csv(tmp_path, family, params):
    written = []
    for workers in (1, 2):
        job = CensusJob(
            family=family, params=params, checks=["hpp", "rayleigh", "negcorr", "paving"],
            budget=2000, seed=7, workers=workers,
            out_csv=str(tmp_path / f"w{workers}.csv"),
            witness_dir=str(tmp_path / f"wit{workers}"),
        )
        rows = run_census(job)
        assert len(rows) > 1
        written.append((tmp_path / f"w{workers}.csv").read_bytes())
    assert written[0] == written[1]


def test_rayleigh_and_c_rayleigh_write_their_own_columns(tmp_path):
    job = CensusJob(
        family="sparse_paving", params={"n": 7, "r": 3}, checks=["rayleigh", "c_rayleigh:2"],
        budget=2000, out_csv=str(tmp_path / "sp.csv"), witness_dir=str(tmp_path / "wit"),
    )
    rows = run_census(job)
    assert Counter(row["rayleigh_outcome"] for row in rows) == {"Holds": 9, "Inconclusive": 5}
    assert Counter(row["c_rayleigh_outcome"] for row in rows) == {"Holds": 14}
    assert all(row["witness_ref"] == "" for row in rows)


def test_c_rayleigh_holds_without_a_pair_in_a_common_basis(tmp_path):
    job = CensusJob(
        family="lpm", params={"max_total": 1}, checks=["c_rayleigh"],
        out_csv=str(tmp_path / "lpm.csv"), witness_dir=str(tmp_path / "wit"),
    )
    assert [row["c_rayleigh_outcome"] for row in run_census(job)] == ["Holds", "Holds"]


@pytest.mark.parametrize(
    "check, message",
    [
        ("rayleigh:5", "check 'rayleigh' takes no argument"),
        ("hpp:1", "check 'hpp' takes no argument"),
        ("c_rayleigh:0", "c_rayleigh needs a positive rational c"),
        ("c_rayleigh:-1/2", "c_rayleigh needs a positive rational c"),
        ("c_rayleigh:abc", "c_rayleigh needs a positive rational c"),
        ("c_rayleigh:1/0", "c_rayleigh needs a positive rational c"),
        ("nlc", "unknown check 'nlc'"),
    ],
)
def test_bad_check_is_refused_before_any_instance_runs(tmp_path, check, message):
    with pytest.raises(ValueError, match=message):
        CensusJob(
            family="lpm", params={"max_total": 1}, checks=["negcorr", check],
            out_csv=str(tmp_path / "lpm.csv"), witness_dir=str(tmp_path / "wit"),
        )
