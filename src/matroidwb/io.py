"""Text formats: matroids, graphs, set systems, lattice paths, polynomial
dumps, and verdict JSON."""
from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

from .core import MAX_ELEMENTS, Matroid, elements, from_bases
from .constructions import LatticePathPair, MultiGraph, SetSystem
from .poly import BoundedPoly
from .verdicts import Verdict


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


_INT = re.compile(r"-?[0-9]+")


def _ints(lineno: int, toks: list[str]) -> list[int]:
    """The tokens as integers, each an optional `-` and ASCII digits: `int`
    alone would also take `1_2`, `+2` and non-ASCII digits."""
    if not all(map(_INT.fullmatch, toks)):
        raise ParseError(lineno, f"expected integers, got {' '.join(toks)!r}")
    return [int(tok) for tok in toks]


def _members(lineno: int, line: str, n: int, what: str, distinct: bool = True) -> list[int]:
    """The integers of a data line, in 1..n and, if distinct, none twice."""
    items = _ints(lineno, line.split())
    for i, e in enumerate(items):
        if not 1 <= e <= n:
            raise ParseError(lineno, f"{what} {e} outside 1..{n}")
        if distinct and e in items[:i]:
            raise ParseError(lineno, f"{what} {e} listed twice")
    return items


def _header(text: str, what: str, form: str, ints: bool = True):
    """(fields, lineno, body) of a file whose first data line is `form`, a
    keyword and two fields: the fields, as integers when `ints`, the line
    number of that header and the data lines after it.  `what` names the
    file when it is empty.  A path file is its header alone, with string
    fields, so its refusal says `expected` without `header`."""
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError(1, f"empty {what} file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != form.split()[0]:
        raise ParseError(lineno, f"expected header `{form}`" if ints else f"expected `{form}`")
    return (_ints(lineno, parts[1:]) if ints else parts[1:]), lineno, lines[1:]


# -- matroid: `matroid <n> <r>` then one basis per line ----------------------


def format_matroid(M: Matroid, comments: Optional[list[str]] = None) -> str:
    out = [f"# {c}" for c in (comments or [])]
    out.append(f"matroid {M.n} {M.r}")
    for B in M.basis_masks:
        out.append(" ".join(str(e) for e in elements(B)))
    return "\n".join(out) + "\n"


def parse_matroid(text: str) -> Matroid:
    (n, r), header_lineno, body = _header(text, "matroid", "matroid <n> <r>")
    if not 0 <= r <= n <= MAX_ELEMENTS:
        raise ParseError(header_lineno, f"header needs 0 <= r <= n <= {MAX_ELEMENTS}, got {n} {r}")
    if r > 0 and not body:
        raise ParseError(header_lineno, f"rank {r} needs basis lines, found none")
    bases, seen = [], {}
    for lineno, line in body:
        basis = _members(lineno, line, n, "element")
        if len(basis) != r:
            raise ParseError(lineno, f"basis has {len(basis)} elements, expected {r}")
        if (first := seen.setdefault(frozenset(basis), lineno)) != lineno:
            raise ParseError(lineno, f"basis repeats line {first}")
        bases.append(basis)
    # rank 0: the single empty basis is written as a blank line, which is skipped
    return from_bases(n, bases or [[]])


# -- graph: `graph <v> <e>` then `u w` per edge ------------------------------


def parse_graph(text: str) -> MultiGraph:
    (v, e), lineno, body = _header(text, "graph", "graph <v> <e>")
    if v < 1 or e > MAX_ELEMENTS:
        raise ParseError(lineno, f"header needs v >= 1 and e <= {MAX_ELEMENTS}, got {v} {e}")
    if len(body) != e:
        raise ParseError(lineno, f"expected {e} edge lines, found {len(body)}")
    edges = []
    for lineno, line in body:
        ends = _members(lineno, line, v, "edge end", distinct=False)
        if len(ends) != 2:
            raise ParseError(lineno, f"bad edge line {line!r}")
        edges.append(tuple(ends))
    return MultiGraph(v=v, edges=tuple(edges))


# -- lattice path pair: `lpm <P> <Q>` ----------------------------------------


def parse_lpm(text: str) -> LatticePathPair:
    (p, q), _, _ = _header(text, "path", "lpm <P-string> <Q-string>", ints=False)
    return LatticePathPair(p, q)


# -- set system: `sys <n> <k>` then one set per line, `-` for the empty set ---


def _member_set(lineno: int, line: str, n: int) -> frozenset[int]:
    if line == "-":
        return frozenset()
    if "-" in line.split():
        raise ParseError(lineno, "`-` (the empty set) must stand alone on its line")
    return frozenset(_members(lineno, line, n, "member"))


def parse_setsystem(text: str) -> SetSystem:
    (n, k), lineno, body = _header(text, "set system", "sys <n> <k>")
    if not 0 <= n <= MAX_ELEMENTS or k < 1:
        raise ParseError(lineno, f"header needs 0 <= n <= {MAX_ELEMENTS} and k >= 1, got {n} {k}")
    if len(body) != k:
        raise ParseError(lineno, f"expected {k} set lines, found {len(body)}")
    return SetSystem(n=n, family=tuple(_member_set(lineno, line, n) for lineno, line in body))


# -- polynomial dump ----------------------------------------------------------


def format_poly(f: BoundedPoly) -> str:
    """One term per line, `<coeff> : <var^k ...>`; terms compare by their
    factors in variable order, a variable's square before its first power."""
    if not f.terms:
        return "0\n"
    # each factor as (v, -power); a variable is linear or squared, not both
    rows = sorted(
        (sorted([(v, -1) for v in elements(lin)] + [(v, -2) for v in elements(sq)]), c)
        for (lin, sq), c in f.terms.items())
    out = []
    for factors, c in rows:
        mono = " ".join(f"x{v}" if e == -1 else f"x{v}^2" for v, e in factors)
        out.append(f"{c} : {mono}" if mono else f"{c} :")
    return "\n".join(out) + "\n"


# -- verdict JSON -------------------------------------------------------------


def _frac_str(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def verdict_to_json(
    v: Verdict,
    property_name: str,
    matroid_id: str,
    seed: Optional[int] = None,
    wall_ms: Optional[int] = None,
) -> dict:
    out = {
        "property": property_name,
        "matroid_id": matroid_id,
        "outcome": v.outcome,
        "tiers_run": v.diagnostics.get("tiers_run", []),
    }
    pair = v.diagnostics.get("pair")
    if pair:
        out["pair"] = list(pair)
    out.update({k: v.diagnostics[k] for k in ("contracted", "deleted_after", "reason")
                if k in v.diagnostics})
    if v.certificate is not None:
        out["certificate_kind"] = v.certificate.kind
    if v.witness is not None:
        out["witness"] = {"value": _frac_str(v.witness.value),
                          "point": [_frac_str(x) for x in v.witness.point]}
    if seed is not None:
        out["seed"] = seed
    if wall_ms is not None:
        out["wall_ms"] = wall_ms
    return out


def dump_verdict_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
