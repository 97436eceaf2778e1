"""Text formats: matroid files round-trip, rank 0 included, a token that is
not an optional `-` and ASCII digits, an element outside its range, a basis
or set that names an element twice, a repeated basis, a header field out of
range and a positive rank with no basis line are parse errors that name
their line, a set
line `-` is the empty member and `-` beside elements is refused by its line,
a polynomial is printed one term a line in the order of its factors, and a
Fails witness is written as its value and its point."""
from fractions import Fraction

import pytest

from matroidwb.constructions import SetSystem, named_atlas, transversal, uniform
from matroidwb.core import from_bases
from matroidwb.io import (
    ParseError,
    format_matroid,
    format_poly,
    parse_graph,
    parse_matroid,
    parse_setsystem,
    verdict_to_json,
)
from matroidwb.poly import BoundedPoly
from matroidwb.verdicts import Witness, fails


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


def test_rank_zero_rejects_a_non_empty_basis():
    with pytest.raises(ParseError):
        parse_matroid("matroid 3 0\n1\n")


@pytest.mark.parametrize("n", [0, 3])
def test_rank_zero_file_goes_through_check(tmp_path, n):
    from matroidwb.cli import main

    path = tmp_path / "loops.txt"
    path.write_text(format_matroid(uniform(0, n)))
    assert main(["check", str(path), "--prop", "positroid"]) == 0


@pytest.mark.parametrize("parse, text, lineno, message", [
    (parse_matroid, "matroid 3 2\n1 2\n3 3\n", 3, "element 3 listed twice"),
    (parse_matroid, "matroid 3 2\n1 1\n", 2, "element 1 listed twice"),
    (parse_matroid, "# a comment\nmatroid 4 3\n1 2 3\n2 4 2\n", 4, "element 2 listed twice"),
    (parse_matroid, "matroid 3 2\n1 4\n", 2, "element 4 outside 1..3"),
    (parse_matroid, "matroid 3 2\n1 2\n0 1\n", 3, "element 0 outside 1..3"),
    (parse_matroid, "matroid 3 2\n-1 2\n", 2, "element -1 outside 1..3"),
    (parse_matroid, "matroid 3 2\n1 2\n2 1\n1 3\n", 3, "basis repeats line 2"),
    (parse_graph, "graph 2 2\n1 1\n2 3\n", 3, "edge end 3 outside 1..2"),
    (parse_graph, "graph 2 1\n0 1\n", 2, "edge end 0 outside 1..2"),
    (parse_setsystem, "sys 3 2\n1 2\n3 4\n", 3, "member 4 outside 1..3"),
    (parse_setsystem, "sys 3 1\n1 1 2\n", 2, "member 1 listed twice"),
    (parse_matroid, "matroid 20 1\n1\n", 1, "header needs 0 <= r <= n <= 16, got 20 1"),
    (parse_matroid, "matroid -1 0\n", 1, "header needs 0 <= r <= n <= 16, got -1 0"),
    (parse_matroid, "matroid 3 4\n1 2 3 4\n", 1, "header needs 0 <= r <= n <= 16, got 3 4"),
    (parse_matroid, "matroid 3 -1\n", 1, "header needs 0 <= r <= n <= 16, got 3 -1"),
    (parse_matroid, "matroid 3 1\n", 1, "rank 1 needs basis lines, found none"),
    (parse_matroid, "# rank 2\nmatroid 3 2\n\n", 2, "rank 2 needs basis lines, found none"),
    (parse_graph, "graph 0 0\n", 1, "header needs v >= 1 and e <= 16, got 0 0"),
    (parse_graph, "graph 2 17\n" + "1 2\n" * 17, 1, "header needs v >= 1 and e <= 16, got 2 17"),
    (parse_setsystem, "sys 17 1\n1\n", 1, "header needs 0 <= n <= 16 and k >= 1, got 17 1"),
    (parse_setsystem, "sys -1 1\n1\n", 1, "header needs 0 <= n <= 16 and k >= 1, got -1 1"),
    (parse_setsystem, "sys 3 0\n", 1, "header needs 0 <= n <= 16 and k >= 1, got 3 0"),
    (parse_setsystem, "sys 3 2\n-\n1 -\n", 3, "`-` \\(the empty set\\) must stand alone on its line"),
    (parse_setsystem, "sys 3 1\n- 2\n", 2, "`-` \\(the empty set\\) must stand alone on its line"),
], ids=["second-line", "only-line", "after-a-comment", "outside", "zero", "negative",
        "repeated-basis", "edge-end-outside", "edge-end-zero", "member-outside",
        "member-twice", "matroid-n-above-16", "matroid-n-negative", "matroid-r-above-n",
        "matroid-r-negative", "positive-rank-no-basis-line", "no-basis-after-a-comment",
        "graph-no-vertex", "graph-e-above-16", "sys-n-above-16", "sys-n-negative",
        "sys-no-member", "sys-empty-mark-after-a-member", "sys-empty-mark-before-a-member"])
def test_a_basis_naming_an_element_twice_names_its_line(parse, text, lineno, message):
    """So does any data line naming an element outside its range, a set
    naming a member twice and a basis line repeating an earlier one; a
    header field out of range, and a positive rank with no basis line, name
    the header's line."""
    with pytest.raises(ParseError, match=f"^line {lineno}: {message}$") as info:
        parse(text)
    assert info.value.lineno == lineno


@pytest.mark.parametrize(
    "parse, text, lineno",
    [
        (parse_graph, "graph 2 x\n1 2\n", 1),
        (parse_graph, "# a path\ngraph 3 2\n1 2\n1 two\n", 4),
        (parse_setsystem, "sys 3 y\n1 2\n", 1),
        (parse_setsystem, "sys 3 2\n1 2\n2 a\n", 3),
        (parse_matroid, "matroid 2 r\n1\n", 1),
        (parse_matroid, "matroid 2 1\n1\nb\n", 3),
        (parse_matroid, "matroid 12 1\n1_2\n", 2),
        (parse_setsystem, "sys 3 1\n+2 3\n", 2),
        (parse_setsystem, "sys 3 1\n2 \u0663\n", 2),
        (parse_graph, "graph +2 1\n1 2\n", 1),
    ],
)
def test_non_integer_token_names_its_line(parse, text, lineno):
    """An integer is an optional `-` and ASCII digits: Python's `int` would
    also read `1_2` as 12, `+2` as 2 and an Arabic-Indic three as 3."""
    with pytest.raises(ParseError, match=f"^line {lineno}: expected integers") as info:
        parse(text)
    assert info.value.lineno == lineno


def test_construct_reports_the_bad_edge_line(tmp_path, capsys):
    from matroidwb.cli import main

    path = tmp_path / "g.txt"
    path.write_text("graph 2 2\n1 2\n1 two\n")
    assert main(["construct", "graphic", "--in", str(path)]) == 4
    assert "line 3: expected integers, got '1 two'" in capsys.readouterr().err


def test_a_dash_line_is_the_empty_member():
    """Empty members, repeated ones too, keep their place in the family; the
    transversal matroid matches no element to them."""
    S = parse_setsystem("sys 3 4\n-\n1 2\n  -  # empty again\n2\n")
    assert S == SetSystem(3, (frozenset(), frozenset({1, 2}), frozenset(), frozenset({2})))
    assert transversal(S) == from_bases(3, [(1, 2)])
    assert parse_setsystem("sys 0 1\n-\n") == SetSystem(0, (frozenset(),))


def test_poly_terms_are_ordered_by_their_factors_a_square_first():
    f = BoundedPoly(3, {
        (0b100, 0b010): 4, (0b001, 0b100): Fraction(1, 3), (0b011, 0): 1,
        (0b010, 0b001): -2, (0, 0b001): 7, (0, 0): 5,
    })
    assert format_poly(f) == (
        "5 :\n7 : x1^2\n-2 : x1^2 x2\n1 : x1 x2\n1/3 : x1 x3^2\n4 : x2^2 x3\n")
    assert format_poly(BoundedPoly(3)) == "0\n"


def test_a_fails_witness_is_its_value_and_its_point():
    v = fails(Witness(Fraction(-1, 3), (Fraction(1), Fraction(1, 2))), pair=(1, 2))
    out = verdict_to_json(v, "rayleigh", "m")
    assert out["witness"] == {"value": "-1/3", "point": ["1", "1/2"]}
