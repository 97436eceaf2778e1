"""Census orchestration: the CSV does not depend on the worker count, a
stopped census keeps its finished rows and its rerun writes what an
unstopped one does, a census stopped by Ctrl-C says so in one line, the
limit is the number of rows of every family and no limit is every
instance, each check writes its own column and no two checks write one, a
bad check, family param, count or seed is refused when the job is made, a
census resumes only a CSV of its own job, and each census cell is what
`check --prop` prints without a pair."""
import json
import re
from collections import Counter

import pytest

from matroidwb.census import CHECKS, CensusJob, _instance_seed, _instances, run_census
from matroidwb.classifiers import lpm_family
from matroidwb.cli import main
from matroidwb.io import format_matroid


def stopping(check, seed, error=RuntimeError("census stopped")):
    """`check`, raising the error on the instance of this seed."""
    def call(M, pair, c, budget, instance_seed):
        if instance_seed == seed:
            raise error
        return check.call(M, pair, c, budget, instance_seed)
    return check._replace(call=call)


def witnesses(directory):
    """Each witness JSON in the directory, without its `wall_ms`."""
    return {path.name: {key: value for key, value in json.loads(path.read_text()).items()
                        if key != "wall_ms"}
            for path in directory.iterdir()}


# each census is also stopped at the instance of index 9 and run again; in
# sp(7,3) that is after its Fails witnesses at 00007 and 00008
@pytest.mark.parametrize(
    "family, params",
    [("lpm", {"max_total": 4}), ("bicircular", {"max_edges": 3}),
     ("sparse_paving", {"n": 7, "r": 3})])
def test_one_and_two_workers_write_identical_csv(tmp_path, monkeypatch, family, params):
    written = []
    for workers, stop in [(1, None), (2, None), (1, 9), (2, 9)]:
        out, wit = tmp_path / f"w{workers}-{stop}.csv", tmp_path / f"wit{workers}-{stop}"
        job = CensusJob(
            family=family, params=params, checks=["hpp", "rayleigh", "negcorr", "paving"],
            budget=2000, seed=7, workers=workers, out_csv=str(out), witness_dir=str(wit),
        )
        if stop is not None:
            with monkeypatch.context() as patch:
                patch.setitem(CHECKS, "paving",
                              stopping(CHECKS["paving"], _instance_seed(job.seed, stop)))
                with pytest.raises(RuntimeError, match="census stopped"):
                    run_census(job)
            assert json.loads((tmp_path / f"{out.name}.job.json").read_text()) == job.record()
            lines = written[0][0].splitlines(keepends=True)
            assert out.read_bytes() == b"".join(lines[:1 + stop])  # the header and stop rows
        rows = run_census(job)
        assert len(rows) > 1
        written.append((out.read_bytes(), witnesses(wit)))
    assert all(w == written[0] for w in written)
    assert family != "sparse_paving" or written[0][1]


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


@pytest.mark.parametrize(
    "name, value", [("workers", 0), ("workers", -3), ("limit", 0), ("budget", -1),
                    ("seed", -1), ("seed", -50_000_000)])
def test_a_count_below_one_is_refused_when_the_job_is_made(tmp_path, capsys, name, value):
    out = tmp_path / "c.csv"
    low = 0 if name == "seed" else 1
    message = f"a census needs {name} >= {low}, got {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        CensusJob(family="lpm", params={}, checks=["negcorr"], out_csv=str(out),
                  witness_dir=str(tmp_path / "wit"), **{name: value})
    argv = ["census", "--family", "lpm", "--checks", "negcorr", f"--{name}", str(value),
            "--out", str(out), "--witness-dir", str(tmp_path / "wit")]
    assert main(argv) == 4
    assert message in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize(
    "family, params", [("lpm", "max_total=6"), ("bicircular", "max_edges=5"),
                       ("sparse_paving", "n=8;r=4"), ("atlas", "")])
def test_limit_is_the_number_of_rows(tmp_path, family, params):
    out = tmp_path / "c.csv"
    argv = ["census", "--family", family, "--params", params, "--checks", "paving",
            "--limit", "3", "--out", str(out), "--witness-dir", str(tmp_path / "wit")]
    assert main(argv) == 0
    ids = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert [i[-5:] for i in ids] == ["00000", "00001", "00002"]


def test_no_limit_is_every_instance(tmp_path):
    out = tmp_path / "c.csv"
    argv = ["census", "--family", "lpm", "--params", "max_total=7", "--checks", "paving",
            "--out", str(out), "--witness-dir", str(tmp_path / "wit")]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 2054
    assert json.loads((tmp_path / "c.csv.job.json").read_text())["limit"] is None


def test_a_census_stopped_by_ctrl_c_says_that_the_same_command_resumes_it(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "c.csv"
    argv = ["census", "--family", "lpm", "--params", "max_total=4", "--checks", "paving",
            "--seed", "3", "--out", str(out), "--witness-dir", str(tmp_path / "wit")]
    with monkeypatch.context() as patch:
        patch.setitem(CHECKS, "paving", stopping(
            CHECKS["paving"], _instance_seed(3, 5), KeyboardInterrupt()))
        assert main(argv) == 130
    assert capsys.readouterr().err == (
        f"census stopped: {out} keeps 5 rows; rerun the same command to resume it\n")
    stopped = out.read_text()
    assert main(argv) == 0
    rows = out.read_text()
    assert rows.startswith(stopped) and len(rows.splitlines()) == 1 + len(list(lpm_family(4)))


def test_a_family_over_its_size_cap_leaves_no_file(tmp_path, capsys):
    argv = ["census", "--family", "lpm", "--params", "max_total=10", "--checks", "negcorr",
            "--out", str(tmp_path / "c.csv"), "--witness-dir", str(tmp_path / "wit")]
    assert main(argv) == 4
    assert "path census capped at m + r = 9" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "checks, message",
    [
        (["c_rayleigh:1/2", "c_rayleigh:2"],
         "checks 'c_rayleigh:1/2' and 'c_rayleigh:2' both fill column 'c_rayleigh_outcome'"),
        (["c_rayleigh", "hpp", "c_rayleigh:8/7"],
         "checks 'c_rayleigh' and 'c_rayleigh:8/7' both fill column 'c_rayleigh_outcome'"),
        (["hpp", "hpp"], "checks 'hpp' and 'hpp' both fill column 'hpp_outcome'"),
    ],
)
def test_two_checks_of_one_column_are_refused(tmp_path, checks, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CensusJob(
            family="sparse_paving", params={"n": 7, "r": 3}, checks=checks,
            out_csv=str(tmp_path / "sp.csv"), witness_dir=str(tmp_path / "wit"),
        )


def test_census_command_refuses_two_c_rayleigh_checks(tmp_path, capsys):
    out = tmp_path / "sp.csv"
    argv = ["census", "--family", "sparse_paving", "--params", "n=7;r=3",
            "--checks", "c_rayleigh:1/2,c_rayleigh:2", "--out", str(out),
            "--witness-dir", str(tmp_path / "wit")]
    assert main(argv) == 4
    assert "both fill column 'c_rayleigh_outcome'" in capsys.readouterr().err
    assert not out.exists()


def lpm3_job(tmp_path, **changes):
    fields = dict(
        family="lpm", params={"max_total": 3}, checks=["negcorr", "c_rayleigh:2"],
        seed=5, budget=2000, limit=1000,
        out_csv=str(tmp_path / "lpm.csv"), witness_dir=str(tmp_path / "wit"),
    )
    fields.update(changes)
    return CensusJob(**fields)


def test_a_census_resumes_its_own_job(tmp_path):
    full = run_census(lpm3_job(tmp_path))
    written = (tmp_path / "lpm.csv").read_text()
    assert json.loads((tmp_path / "lpm.csv.job.json").read_text()) == {
        "family": "lpm", "params": {"max_total": 3},
        "checks": [["negcorr", None], ["c_rayleigh", "2"]],
        "seed": 5, "budget": 2000, "limit": 1000}
    lines = written.splitlines(keepends=True)
    (tmp_path / "lpm.csv").write_text("".join(lines[:3]))  # the header and two rows
    resumed = run_census(lpm3_job(tmp_path, workers=2, witness_dir=str(tmp_path / "w2")))
    assert resumed == full
    assert (tmp_path / "lpm.csv").read_text() == written


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"family": "atlas", "params": {}}, "family"),
        ({"params": {"max_total": 4}}, "params"),
        ({"checks": ["negcorr", "c_rayleigh:1/2"]}, "checks"),
        ({"checks": ["c_rayleigh:2", "negcorr"]}, "checks"),
        ({"seed": 6}, "seed"),
        ({"budget": 3000}, "budget"),
        ({"limit": 4}, "limit"),
        ({"limit": None}, "limit"),  # a CSV made under the old default of 1000
    ],
)
def test_a_census_refuses_the_csv_of_another_job(tmp_path, changes, field):
    run_census(lpm3_job(tmp_path))
    written = (tmp_path / "lpm.csv").read_bytes()
    with pytest.raises(ValueError, match=rf"lpm\.csv holds another job: its {field} is "):
        run_census(lpm3_job(tmp_path, **changes))
    assert (tmp_path / "lpm.csv").read_bytes() == written


def test_a_census_refuses_a_csv_without_its_job_file(tmp_path, capsys):
    run_census(lpm3_job(tmp_path))
    (tmp_path / "lpm.csv.job.json").unlink()
    with pytest.raises(ValueError, match="so its job is unknown"):
        run_census(lpm3_job(tmp_path))
    argv = ["census", "--family", "lpm", "--params", "max_total=3", "--checks", "negcorr",
            "--out", str(tmp_path / "lpm.csv"), "--witness-dir", str(tmp_path / "wit")]
    assert main(argv) == 4
    assert "so its job is unknown" in capsys.readouterr().err
