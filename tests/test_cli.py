"""The `check` and `poly` commands at their boundary: a pair from the
command line is validated before any check runs and refused by the checks
that ignore it, the basis polynomial is built only for the checks that read
it, strong_rayleigh without a pair has an answer when no pair lies in a
common basis, a negative seed and a budget below one are refused, c must
be a positive rational, `--out` gets the printed JSON
for every check, and `poly --rayleigh` and `construct minor`, `extension`,
`truncation` and `relax` refuse an element outside the ground set, and
`construct 2sum` a basepoint outside it, a balance Fails names the
minor its pair and witness live on, and the JSON of `check --pair` is
pinned."""
import json
from functools import reduce
from itertools import combinations
from operator import xor

import pytest

from matroidwb.cli import main
from matroidwb.constructions import principal_extension, uniform
from matroidwb.core import from_bases
from matroidwb.io import format_matroid
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


def test_two_sum_basepoint_outside_the_ground_set_is_an_error(tmp_path, capsys):
    path = tmp_path / "m3.txt"
    path.write_text(format_matroid(uniform(2, 3)))
    args = ["construct", "2sum", "--in", str(path), "--p", "0", "--in2", str(path), "--q", "1"]
    assert main(args) == 4
    captured = capsys.readouterr()
    assert "element 0 is not in the ground set 1..3" in captured.err and captured.out == ""


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
