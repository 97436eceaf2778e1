"""The `check` and `poly` commands at their boundary: a pair from the
command line is validated before any check runs and refused by the checks
that ignore it, the basis polynomial is built only for the checks that read
it, strong_rayleigh without a pair has an answer when no pair lies in a
common basis, a negative seed and a budget below one are refused, c must
be a positive rational, `--out` gets the printed JSON
for every check, and `poly --rayleigh` and `construct minor`, `extension`,
`truncation` and `relax` refuse an element outside the ground set, and
`construct 2sum` a basepoint outside it, the commands that read a set
refuse an element listed twice, `--delete` reads the labels left after
`--contract`, `construct lpm` without `--in` needs both endpoint lists,
every `construct` kind given no arguments is refused without a traceback,
a balance Fails names the minor its pair and witness live on, and the
JSON of `check --pair` is pinned."""
import argparse
import json
from functools import reduce
from itertools import combinations
from operator import xor

import pytest

from matroidwb.cli import build_parser, main
from matroidwb.constructions import principal_extension, uniform
from matroidwb.core import from_bases
from matroidwb.io import format_matroid, parse_matroid
from matroidwb.poly import basis_poly

PAIR_PROPS = ["negcorr", "rayleigh", "strong_rayleigh", "c_rayleigh"]


@pytest.fixture
def u13(tmp_path):
    path = tmp_path / "u13.txt"
    path.write_text(format_matroid(uniform(1, 3)))
    return str(path)


@pytest.mark.parametrize("prop", PAIR_PROPS)
def test_pair_outside_the_ground_set_is_an_error(u13, prop, capsys):
    assert main(["check", u13, "--prop", prop, "--pair", "1,9"]) == 4
    assert "two distinct elements of 1..3" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["1", "1,2,3", "2,2", "0,1"])
def test_pair_needs_two_distinct_elements(u13, pair, capsys):
    assert main(["check", u13, "--prop", "negcorr", "--pair", pair]) == 4
    assert "two distinct elements" in capsys.readouterr().err


@pytest.mark.parametrize("M", [uniform(1, 3), uniform(0, 2)], ids=["U13", "U02"])
def test_strong_rayleigh_without_a_pair_in_a_common_basis(tmp_path, M, capsys):
    path = tmp_path / "m.txt"
    path.write_text(format_matroid(M))
    outcomes = []
    for prop in ("rayleigh", "strong_rayleigh"):
        assert main(["check", str(path), "--prop", prop]) == 0
        payload = json.loads(capsys.readouterr().out)
        outcomes.append((payload["outcome"], payload["certificate_kind"]))
    assert outcomes[0] == outcomes[1] == ("Holds", "CoefficientNonneg")


@pytest.mark.parametrize("name, value", [("seed", -1), ("budget", 0), ("budget", -5)])
def test_a_negative_seed_or_a_budget_below_one_is_refused(u13, name, value, capsys):
    assert main(["check", u13, "--prop", "hpp", f"--{name}", str(value)]) == 4
    low = 0 if name == "seed" else 1
    captured = capsys.readouterr()
    assert f"check needs {name} >= {low}, got {value}" in captured.err and captured.out == ""


@pytest.mark.parametrize("c", ["1/0", "abc", "0"])
def test_c_must_be_a_positive_rational(u13, c, capsys):
    assert main(["check", u13, "--prop", "c_rayleigh", "--c", c]) == 4
    assert f"c_rayleigh needs a positive rational c, got '{c}'" in capsys.readouterr().err


@pytest.mark.parametrize("prop", ["negcorr", "positroid", "paving"])
def test_out_gets_the_printed_json(u13, tmp_path, prop, capsys):
    out = tmp_path / "v.json"
    assert main(["check", u13, "--prop", prop, "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)


def test_valid_pair_runs_the_check(u13, capsys):
    assert main(["check", u13, "--prop", "negcorr", "--pair", "1,3"]) == 0
    assert json.loads(capsys.readouterr().out)["pair"] == [1, 3]


@pytest.mark.parametrize("prop", ["hpp", "balanced", "positroid", "paving", "sparse_paving"])
def test_pair_given_to_a_check_that_ignores_it_is_an_error(u13, prop, capsys):
    assert main(["check", u13, "--prop", prop, "--pair", "1,2"]) == 4
    err = capsys.readouterr().err
    assert f"--prop {prop} takes no --pair" in err
    assert all(p in err for p in PAIR_PROPS)


@pytest.mark.parametrize("prop", ["negcorr", "balanced", "hpp", "positroid", "paving"])
def test_checks_without_a_polynomial_do_not_build_one(u13, prop, monkeypatch, capsys):
    def refuse(M):
        raise AssertionError("basis_poly built")

    monkeypatch.setattr("matroidwb.census.basis_poly", refuse)
    assert main(["check", u13, "--prop", prop]) == 0


@pytest.mark.parametrize("prop", ["rayleigh", "strong_rayleigh", "c_rayleigh"])
def test_polynomial_checks_build_the_basis_polynomial(u13, prop, monkeypatch, capsys):
    built = []
    monkeypatch.setattr("matroidwb.census.basis_poly", lambda M: built.append(M) or basis_poly(M))
    assert main(["check", u13, "--prop", prop]) == 0
    assert len(built) == 1


@pytest.fixture
def u24(tmp_path):
    path = tmp_path / "u24.txt"
    path.write_text(format_matroid(uniform(2, 4)))
    return str(path)


@pytest.mark.parametrize("pair", [("1", "9"), ("0", "1"), ("2", "2"), ("-1", "2")])
def test_poly_rayleigh_pair_outside_the_ground_set_is_an_error(u24, pair, capsys):
    assert main(["poly", u24, "--rayleigh", *pair]) == 4
    captured = capsys.readouterr()
    assert "two distinct variables of 1..4" in captured.err and captured.out == ""


# `check --pair` prints the verdict's own pair, in the order given; the
# JSON is pinned byte for byte but for its last line, wall_ms
PAIR_JSON = """{{
  "certificate_kind": "{kind}",
  "matroid_id": "{path}",
  "outcome": "Holds",
  "pair": [
    3,
    1
  ],
  "property": "{prop}",
  "seed": 0,
  "tiers_run": {tiers},
"""


@pytest.mark.parametrize("prop,kind,tiers", [
    ("negcorr", "AllOnesExact", "[]"),
    ("rayleigh", "CoefficientNonneg", '[\n    "coeff"\n  ]'),
], ids=["negcorr", "rayleigh"])
def test_check_pair_json_is_pinned(u24, prop, kind, tiers, capsys):
    assert main(["check", u24, "--prop", prop, "--pair", "3,1"]) == 0
    head, wall_ms = capsys.readouterr().out.split('  "wall_ms": ')
    assert head == PAIR_JSON.format(kind=kind, path=u24, prop=prop, tiers=tiers)
    assert wall_ms[:-3].isdigit() and wall_ms.endswith("\n}\n")


def test_poly_rayleigh_prints_the_difference(u24, capsys):
    assert main(["poly", u24, "--rayleigh", "1", "2"]) == 0
    assert capsys.readouterr().out == "1 : x3^2\n1 : x3 x4\n1 : x4^2\n"


@pytest.mark.parametrize("op", ["--delete", "--contract"])
def test_minor_of_an_element_outside_the_ground_set_is_an_error(tmp_path, op, capsys):
    path = tmp_path / "m3.txt"
    path.write_text(format_matroid(uniform(2, 3)))
    assert main(["construct", "minor", "--in", str(path), op, "4"]) == 4
    captured = capsys.readouterr()
    assert "element 4 is not in the ground set 1..3" in captured.err and captured.out == ""


@pytest.mark.parametrize("kind", ["extension", "truncation", "relax"])
def test_set_with_an_element_outside_the_ground_set_is_an_error(tmp_path, kind, capsys):
    path = tmp_path / "m3.txt"
    path.write_text(format_matroid(uniform(2, 3)))
    assert main(["construct", kind, "--in", str(path), "--set", "1,9"]) == 4
    captured = capsys.readouterr()
    assert "element 9 is not in the ground set 1..3" in captured.err and captured.out == ""


@pytest.mark.parametrize("kind,flag", [
    ("minor", "--delete"), ("minor", "--contract"),
    ("extension", "--set"), ("truncation", "--set"), ("relax", "--set"),
])
def test_an_element_listed_twice_is_an_error(u24, kind, flag, capsys):
    assert main(["construct", kind, "--in", u24, flag, "1,1"]) == 4
    captured = capsys.readouterr()
    assert "error: element 1 listed twice" in captured.err and captured.out == ""


def test_delete_reads_the_labels_left_after_contract(tmp_path, capsys):
    """Elements 1 and 2 are coloops; after contracting 1, label 1 is the old
    element 2, so the minor is M/1\\2 = U(1, 2), not a rank-2 minor."""
    path = tmp_path / "m4.txt"
    path.write_text(format_matroid(from_bases(4, [(1, 2, 3), (1, 2, 4)])))
    assert main(["construct", "minor", "--in", str(path), "--contract", "1", "--delete", "1"]) == 0
    out = capsys.readouterr().out
    assert "# contracted [1], deleted [2]; old->new {3: 1, 4: 2}\n" in out
    assert parse_matroid(out) == uniform(1, 2)
    with pytest.raises(SystemExit):
        main(["construct", "minor", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "labelled as after --contract: `--contract 1 --delete 1` deletes the old element 2" in help_text


@pytest.mark.parametrize("flags,comment", [
    (["--contract", "1"], "contracted [1]; old->new {2: 1, 3: 2, 4: 3, 5: 4}"),
    (["--delete", "4,2"], "deleted [2, 4]; old->new {1: 1, 3: 2, 5: 3}"),
    (["--contract", "3", "--delete", "1,3"], "contracted [3], deleted [1, 4]; old->new {2: 1, 5: 2}"),
    (["--delete", "1", "--contract", "5"], "contracted [5], deleted [1]; old->new {2: 1, 3: 2, 4: 3}"),
], ids=["contract", "delete", "both", "delete-flag-first"])
def test_minor_comment_maps_input_labels_to_output_labels(tmp_path, flags, comment, capsys):
    """One comment names the removed elements and the composed map in the
    labels of the input file, whatever the order of the flags."""
    path = tmp_path / "m5.txt"
    path.write_text(format_matroid(uniform(2, 5)))
    assert main(["construct", "minor", "--in", str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("#")] == [f"# {comment}"]


def test_transversal_reads_an_empty_member(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text("sys 3 2\n-\n1 3\n")
    assert main(["construct", "transversal", "--in", str(path)]) == 0
    assert parse_matroid(capsys.readouterr().out) == from_bases(3, [(1,), (3,)])
    with pytest.raises(SystemExit):
        main(["construct", "transversal", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "a line holding only `-` is the empty member" in help_text


def test_two_sum_basepoint_outside_the_ground_set_is_an_error(tmp_path, capsys):
    path = tmp_path / "m3.txt"
    path.write_text(format_matroid(uniform(2, 3)))
    args = ["construct", "2sum", "--in", str(path), "--p", "0", "--in2", str(path), "--q", "1"]
    assert main(args) == 4
    captured = capsys.readouterr()
    assert "element 0 is not in the ground set 1..3" in captured.err and captured.out == ""


@pytest.mark.parametrize("flags", [[], ["--lower", "1,2"], ["--upper", "2,3"]])
def test_lpm_without_a_file_needs_both_endpoint_lists(flags, capsys):
    assert main(["construct", "lpm", *flags]) == 4
    assert "needs --in or both --lower and --upper" in capsys.readouterr().err


def _subcommands(parser):
    """The subparsers of a parser's one subcommand argument, by name."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_construct_kind_without_arguments_is_refused():
    """argparse's usage error (exit 2) or the `error:` line (exit 4), never
    another exception."""
    kinds = _subcommands(_subcommands(build_parser())["construct"])
    assert "lpm" in kinds and "transversal" in kinds
    for kind in kinds:
        try:
            code = main(["construct", kind])
        except SystemExit as exc:
            code = exc.code
        assert code in (2, 4), kind


# binary S8: a 4-set of these GF(2) columns is a basis when no nonempty subset sums to 0
S8_COLUMNS = (0b0001, 0b0010, 0b0100, 0b1000, 0b1111, 0b1101, 0b1011, 0b0111)


def test_a_balance_fails_names_its_minor(tmp_path, u13, capsys):
    """principal_extension(S8, [1, 2]) is negatively correlated; its
    deletion of element 9 is S8, which is not."""
    S8 = from_bases(8, [S for S in combinations(range(1, 9), 4) if all(
        reduce(xor, (S8_COLUMNS[e - 1] for e in T)) for k in range(1, 5) for T in combinations(S, k))])
    path = tmp_path / "s8p12.txt"
    path.write_text(format_matroid(principal_extension(S8, [1, 2])))
    assert main(["check", str(path), "--prop", "balanced"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["contracted"], payload["deleted_after"], payload["pair"]) == ([], [9], [1, 5])
    assert len(payload["witness"]["point"]) == 9 - 1
    assert main(["check", u13, "--prop", "balanced"]) == 0
    assert not {"contracted", "deleted_after"} & set(json.loads(capsys.readouterr().out))
