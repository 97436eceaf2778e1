"""Census orchestration: the CSV does not depend on the worker count, each
check writes its own column, a bad check or family param is refused when the
job is made, and each census cell is what `check --prop` prints without a
pair."""
import json
import re
from collections import Counter

import pytest

from matroidwb.census import CHECKS, CensusJob, _instance_seed, _instances, run_census
from matroidwb.cli import main
from matroidwb.io import format_matroid


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
    assert Counter(row["rayleigh_outcome"] for row in rows) == {"Holds": 6, "Inconclusive": 8}
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


def test_strong_rayleigh_is_all_pairs_on_real_space_in_its_own_column(tmp_path):
    job = CensusJob(
        family="sparse_paving", params={"n": 7, "r": 3}, checks=["strong_rayleigh"],
        budget=2000, out_csv=str(tmp_path / "sp.csv"), witness_dir=str(tmp_path / "wit"),
    )
    rows = run_census(job)
    assert Counter(row["strong_rayleigh_outcome"] for row in rows) == {
        "Holds": 1, "Inconclusive": 8, "Fails": 5}
    assert all(row["hpp_outcome"] == "" for row in rows)
    refs = [row["witness_ref"] for row in rows if row["strong_rayleigh_outcome"] == "Fails"]
    assert all(ref.endswith(".strong_rayleigh.witness.json") for ref in refs)


def test_each_classifier_fills_only_its_own_column(tmp_path):
    def cells(*checks):
        job = CensusJob(
            family="atlas", params={}, checks=list(checks),
            out_csv=str(tmp_path / f"{'-'.join(checks)}.csv"), witness_dir=str(tmp_path / "wit"),
        )
        return [(row["paving"], row["sparse_paving"]) for row in run_census(job)]

    both = cells("paving", "sparse_paving")
    assert all(p in ("true", "false") and sp in ("true", "false") for p, sp in both)
    assert cells("paving") == [(p, "") for p, _ in both]
    assert cells("sparse_paving") == [("", sp) for _, sp in both]


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("lpm", {"max_totl": 4}, "family 'lpm' has no param 'max_totl'; its params: max_total"),
        ("lpm", {"connected_only": "false"}, "family 'lpm' has no param 'connected_only'"),
        ("atlas", {"n": 7}, "family 'atlas' has no param 'n'; its params: none"),
        ("lpm", {"max_total": "4.5"}, "param 'max_total' needs an integer, got '4.5'"),
        ("lpm", {"max_total": 4.0}, "param 'max_total' needs an integer, got 4.0"),
        ("lpm", {"max_total": True}, "param 'max_total' needs an integer, got True"),
        ("bicircular", {"max_edges": ""}, "param 'max_edges' needs an integer"),
        ("sparse_paving", {"n": 7}, "family 'sparse_paving' needs param(s) r"),
        ("petersen", {}, "unknown family 'petersen'"),
    ],
)
def test_bad_family_param_is_refused_when_the_job_is_made(tmp_path, family, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CensusJob(
            family=family, params=params, checks=["negcorr"],
            out_csv=str(tmp_path / "c.csv"), witness_dir=str(tmp_path / "wit"),
        )
    assert not (tmp_path / "c.csv").exists()


def test_census_command_refuses_a_misspelt_param(tmp_path, capsys):
    out = tmp_path / "c.csv"
    argv = ["census", "--family", "lpm", "--params", "max_totl=4", "--checks", "negcorr",
            "--out", str(out), "--witness-dir", str(tmp_path / "wit")]
    assert main(argv) == 4
    assert "has no param 'max_totl'" in capsys.readouterr().err and not out.exists()


CLASSIFIER_CELLS = {
    "positroid": {"Holds": "found", "Fails": "none"},
    "paving": {"Holds": "true", "Fails": "false"},
    "sparse_paving": {"Holds": "true", "Fails": "false"},
}


# the first six sp(7,3) classes tell all pairs from the Wagner pair (rayleigh
# at 00005) and strong Rayleigh from hpp (00001 and 00003)
@pytest.mark.parametrize(
    "family, params, limit",
    [("atlas", {}, 5), ("lpm", {"max_total": 3}, 1000), ("sparse_paving", {"n": 7, "r": 3}, 6)],
)
def test_each_census_cell_is_what_check_prints_without_a_pair(
    tmp_path, capsys, family, params, limit
):
    budget = 2000
    job = CensusJob(
        family=family, params=params, checks=list(CHECKS), budget=budget, limit=limit,
        out_csv=str(tmp_path / "c.csv"), witness_dir=str(tmp_path / "wit"),
    )
    rows = run_census(job)
    path = tmp_path / "m.txt"
    for index, (row, (inst_id, _, M)) in enumerate(zip(rows, _instances(job))):
        assert row["id"] == inst_id
        path.write_text(format_matroid(M))
        seed = _instance_seed(job.seed, index)
        for name, check in CHECKS.items():
            code = main(["check", str(path), "--prop", name, "--seed", str(seed),
                         "--budget", str(budget)])
            outcome = json.loads(capsys.readouterr().out)["outcome"]
            assert code == {"Holds": 0, "Fails": 1, "Inconclusive": 2}[outcome]
            expected = CLASSIFIER_CELLS.get(name, {outcome: outcome})[outcome]
            assert row[check.column] == expected, (row["id"], name)
