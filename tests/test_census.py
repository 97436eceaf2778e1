"""Census orchestration: the CSV does not depend on the worker count."""
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
