"""JSON-facing serialization: exact values as "p/q" strings, cyclotomic
numbers as {n, coeffs}, group elements as integer labels."""

from __future__ import annotations

import re
from fractions import Fraction

from grax.algebra import (CentralElement, GroupAlgebraElement, GroupAlgebraMatrix,
                          galois_defect)
from grax.cyclotomic import CycloNum, cyclo_make
from grax.exterior import ExteriorElement
from grax.fitting import CentralLattice, Verdict
from grax.groups import FiniteGroup, group_from_catalog
from grax.reps import irreps


def rat_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_LABEL = re.compile(r"0|[1-9][0-9]*")


def str_to_rat(s) -> Fraction:
    """A rational from an integer or a "p/q" string of decimal digits (p
    optionally signed, "/q" optional).  The form is checked before Fraction
    reads it, so decimals and exponents never reach it."""
    if type(s) is int:
        return Fraction(s)
    if not (isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise ValueError(f"a rational is a \"p/q\" string or an integer, not {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None


def cyclo_to_json(x: CycloNum):
    if x.is_rational():
        return rat_to_str(x.as_rational())
    return {"n": x.n, "coeffs": [rat_to_str(c) for c in x.coeffs]}


def json_to_cyclo(obj) -> CycloNum:
    if isinstance(obj, (str, int)):
        return CycloNum.from_rational(str_to_rat(obj))
    if not (isinstance(obj, dict) and type(obj.get("n")) is int
            and isinstance(obj.get("coeffs"), list)):
        raise ValueError(f"a cyclotomic number is a rational or {{\"n\": integer, "
                         f"\"coeffs\": list}}, not {obj!r}")
    return cyclo_make(obj["n"], [str_to_rat(c) for c in obj["coeffs"]])


def group_to_json(G: FiniteGroup):
    return {"name": G.name, "params": list(G.params),
            "order": G.order, "exponent": G.exponent}


def json_to_group(obj) -> FiniteGroup:
    """The catalog group named by obj: a name, or group_to_json's object,
    read by its "name" alone."""
    name = obj.get("name") if isinstance(obj, dict) else obj
    if not isinstance(name, str):
        raise ValueError(f"a group is a catalog name or {{\"name\": string}}, not {obj!r}")
    return group_from_catalog(name)


def gae_to_json(x: GroupAlgebraElement):
    return {str(g): rat_to_str(Fraction(c, x.den)) for g, c in enumerate(x.num) if c}


def _group_named(obj, G: FiniteGroup | None) -> FiniteGroup:
    """The group obj names; when G is given, obj must name G or no group."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, not {obj!r}")
    if G is None:
        return json_to_group(obj["group"])
    if "group" in obj and json_to_group(obj["group"]).name != G.name:
        raise ValueError(f"the JSON names group {obj['group']!r}, not {G.name}")
    return G


def json_to_gae(G: FiniteGroup, obj) -> GroupAlgebraElement:
    if not isinstance(obj, dict):
        raise ValueError(f"a group-algebra element is a JSON object, not {obj!r}")
    coeffs = [CycloNum.from_rational(0)] * G.order
    for k, v in obj.items():
        if not (_LABEL.fullmatch(k) and int(k) < G.order):
            raise ValueError(f"group label {k!r} is outside 0..{G.order - 1} for {G.name} "
                             f"(labels are decimal digits, no leading zeros)")
        coeffs[int(k)] = json_to_cyclo(v)
    return GroupAlgebraElement.from_coeffs(G, coeffs)


def gam_to_json(M: GroupAlgebraMatrix):
    return {"group": M.group.name, "rows": M.rows, "cols": M.cols,
            "entries": [[gae_to_json(e) for e in row] for row in M.entries]}


def json_to_gam(obj, G: FiniteGroup | None = None) -> GroupAlgebraMatrix:
    G = _group_named(obj, G)
    rows = obj.get("entries")
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"matrix entries are a list of rows, not {rows!r}")
    grid = [[json_to_gae(G, e) for e in row] for row in rows]
    M = GroupAlgebraMatrix.from_entries(G, grid)
    if (obj.get("rows", M.rows), obj.get("cols", M.cols)) != (M.rows, M.cols):
        raise ValueError(f"matrix declares {obj.get('rows')}x{obj.get('cols')} "
                         f"but its entries are {M.rows}x{M.cols}")
    return M


def central_to_json(x: CentralElement):
    return {"group": x.group.name,
            "values": [cyclo_to_json(v) for v in x.values]}


def json_to_central(obj, G: FiniteGroup | None = None) -> CentralElement:
    G = _group_named(obj, G)
    if not isinstance(obj.get("values"), list):
        raise ValueError(f"central values are a list, not {obj.get('values')!r}")
    values = tuple(json_to_cyclo(v) for v in obj["values"])
    # CentralElement refuses a wrong count itself, with a ValueError
    defect = len(values) == len(irreps(G)) and galois_defect(G, values)
    if defect:
        raise ValueError(f"not a central element of Q[{G.name}]: {defect}")
    return CentralElement(G, values)


def lattice_to_json(L: CentralLattice):
    return {"group": L.group.name,
            "ambient_basis": {"kind": "conjugacy class sums",
                              "class_reps": [c[0] for c in L.group.conjugacy_classes]},
            "denominator": L.denominator,
            "hnf": [list(r) for r in L.lattice.basis],
            "stable": L.stable, "exact": L.exact,
            "provenance": list(L.provenance)}


def exterior_to_json(x: ExteriorElement):
    reps = irreps(x.group)
    comps = []
    for chi, (rep, comp) in enumerate(zip(reps, x.comps)):
        comps.append({
            "chi": chi, "degree": rep.degree,
            "basis": {"kind": "ascending subsets, lexicographic",
                      "ambient_dim": x.rank * rep.degree,
                      "subset_size": x.degree * rep.degree},
            "coords": [cyclo_to_json(v) for v in comp]})
    return {"group": x.group.name, "rank": x.rank, "degree": x.degree,
            "components": comps}


def verdict_to_json(v: Verdict):
    out = {"verdict": v.kind}
    if v.witness is not None:
        w = v.witness
        if isinstance(w, GroupAlgebraMatrix):
            out["witness"] = gam_to_json(w)
        elif isinstance(w, tuple):
            out["witness"] = [str(part) if not isinstance(part, (int, list, tuple))
                              else list(part) if isinstance(part, tuple) else part
                              for part in w]
        else:
            out["witness"] = str(w)
    return out
