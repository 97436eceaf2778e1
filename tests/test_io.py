"""Text formats: matroid files round-trip, rank 0 included."""
import pytest

from matroidwb.constructions import named_atlas, uniform
from matroidwb.core import from_bases
from matroidwb.errors import EmptyBases
from matroidwb.io import ParseError, format_matroid, parse_matroid


@pytest.mark.parametrize(
    "M",
    [uniform(0, 0), uniform(0, 1), uniform(0, 3), uniform(2, 4), named_atlas("W3")],
    ids=["U00", "U01", "U03", "U24", "W3"],
)
def test_matroid_round_trip(M):
    N = parse_matroid(format_matroid(M, comments=["round trip"]))
    assert (N.n, N.r, N.basis_masks) == (M.n, M.r, M.basis_masks)


def test_empty_ground_set():
    M = from_bases(0, [[]])
    assert (M.n, M.r, M.basis_masks) == (0, 0, (0,))


def test_positive_rank_needs_basis_lines():
    with pytest.raises(EmptyBases):
        parse_matroid("matroid 3 1\n")


def test_rank_zero_rejects_a_non_empty_basis():
    with pytest.raises(ParseError):
        parse_matroid("matroid 3 0\n1\n")


@pytest.mark.parametrize("n", [0, 3])
def test_rank_zero_file_goes_through_check(tmp_path, n):
    from matroidwb.cli import main

    path = tmp_path / "loops.txt"
    path.write_text(format_matroid(uniform(0, n)))
    assert main(["check", str(path), "--prop", "positroid"]) == 0
