"""The integer paths of the centre against CycloNum copies of the code they
replaced: class coordinates (CentralElement.coords), the Galois check
(galois_defect) and characters of group-algebra elements (char_value).

Each reference below lifts and multiplies CycloNum objects, one value at a
time; the library runs the same sums on integer vectors over the class
table.  Both must give equal coordinates, equal characters and the same
defect message, on groups whose characters have conductors 1 to 8 and on
D5, A4 and S4.
"""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grax import algebra, serde
from grax.algebra import (CentralElement, GroupAlgebraElement, _class_table, _galois_trivial,
                          char_value, galois_defect, nrd_element)
from grax.cyclotomic import CycloNum, _reduce_poly
from grax.groups import group_from_catalog
from grax.reps import galois_permutation, irreps

GROUPS = [f"C{n}" for n in range(1, 9)] + ["D5", "A4", "S4"]


def _coords_reference(x: CentralElement):
    G, e = x.group, x.group.exponent
    lifted = [v if v.is_rational() else v.lift(e) for v in x.values]
    den = math.lcm(*(v.den for v in lifted))
    columns = list(itertools.zip_longest(*([c * rep.degree * (den // v.den) for c in v.num]
                                           for rep, v in zip(irreps(G), lifted)), fillvalue=0))
    table, out = _class_table(G), []
    for cls in G.conjugacy_classes:
        conj = table[G.class_of[G.inverse[cls[0]]]]
        acc = [0] * (len(columns) + len(conj) - 1)
        for i, col in enumerate(columns):
            for j, t in enumerate(conj):
                acc[i + j] += sum(map(operator.mul, col, t))
        if len(acc) > 1:
            acc = _reduce_poly(acc, e)
            if any(acc[1:]):
                raise AssertionError("central element has non-rational class coordinates")
        out.append(Fraction(acc[0], den * G.order))
    return tuple(out)


def _galois_defect_reference(G, values):
    e = G.exponent
    if any(e % v.n for v in values):
        return "central value conductor does not divide the exponent"
    if _galois_trivial(G) and all(v.is_rational() for v in values):
        return None
    lifted = [v.lift(e) for v in values]
    for a in range(2, e):
        if math.gcd(a, e) != 1:
            continue
        perm = galois_permutation(G, a)
        for i in range(len(values)):
            if lifted[i].galois(a) != lifted[perm[i]]:
                return f"Galois consistency fails for sigma_{a} at character {i}"
    return None


def _char_value_reference(rep, x: GroupAlgebraElement):
    acc = CycloNum.from_rational(0)
    for g, c in enumerate(x.coeffs):
        if not c.is_zero():
            acc = acc + c * rep.character[g]
    return acc


_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def _central(draw):
    """A central element of one of GROUPS: from class coordinates, or the
    reduced norm of a small integral element, times a rational, with its
    rational values stored at conductor 1 or at the exponent."""
    G = group_from_catalog(draw(st.sampled_from(GROUPS)))
    if draw(st.booleans()):
        x = CentralElement.from_coords(G, [draw(_fractions) for _ in G.conjugacy_classes])
    else:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=G.order, max_size=G.order))
        x = nrd_element(GroupAlgebraElement.from_coeffs(G, coeffs)) * draw(_fractions)
    lift = draw(st.lists(st.booleans(), min_size=len(x.values), max_size=len(x.values)))
    return CentralElement(G, tuple(v.lift(G.exponent) if up else v
                                   for v, up in zip(x.values, lift)))


@settings(max_examples=250, deadline=None)
@given(_central())
def test_coords_match_the_cyclonum_reference(x):
    assert x.coords() == _coords_reference(x)
    ints, den = x._coords_int()
    assert den > 0 and tuple(Fraction(v, den) for v in ints) == x.coords()


@st.composite
def _perturbed(draw):
    """A value tuple of one of GROUPS, consistent or broken in one place:
    two values swapped, or one replaced by a rational or a power of zeta at
    a conductor that may not divide the exponent."""
    x = draw(_central())
    G, values = x.group, list(x.values)
    k = len(values)
    how = draw(st.sampled_from(["keep", "swap", "rational", "zeta"]))
    i = draw(st.integers(0, k - 1))
    if how == "swap":
        j = draw(st.integers(0, k - 1))
        values[i], values[j] = values[j], values[i]
    elif how == "rational":
        values[i] = CycloNum.from_rational(draw(_fractions))
    elif how == "zeta":
        n = draw(st.sampled_from(sorted({G.exponent, 2 * G.exponent, 3, 4})))
        values[i] = CycloNum.zeta(n) ** draw(st.integers(1, n)) * draw(_fractions)
    return G, tuple(values)


@settings(max_examples=400, deadline=None)
@given(_perturbed())
def test_galois_defect_matches_the_cyclonum_reference(case):
    G, values = case
    assert galois_defect(G, values) == _galois_defect_reference(G, values)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GROUPS).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(_fractions,
                                                   min_size=group_from_catalog(name).order,
                                                   max_size=group_from_catalog(name).order))))
def test_char_value_matches_the_cyclonum_reference(case):
    name, coeffs = case
    G = group_from_catalog(name)
    x = GroupAlgebraElement.from_coeffs(G, coeffs)
    for rep in irreps(G):
        assert char_value(rep, x) == _char_value_reference(rep, x)


def test_char_value_refuses_a_non_rational_coefficient():
    # the refusal is at construction, so no element with a zeta_4
    # coefficient reaches char_value; zeta_4^2 = -1 is read as -1
    G = group_from_catalog("C4")
    with pytest.raises(ValueError, match="rational coefficients"):
        GroupAlgebraElement.from_coeffs(G, [CycloNum.zeta(4), 0, 0, 0])
    minus = GroupAlgebraElement.from_coeffs(G, [CycloNum.zeta(4) * CycloNum.zeta(4), 0, 0, 0])
    assert [char_value(rep, minus) for rep in irreps(G)] == [-1] * 4


@pytest.mark.parametrize("name", ["C5", "C8", "D5", "A4"])
def test_inconsistent_tuple_refused_with_the_same_message_on_both_paths(name):
    G = group_from_catalog(name)
    x = nrd_element(GroupAlgebraElement.from_coeffs(G, [1, 2] + [0] * (G.order - 2)))
    perm = next(p for p in (galois_permutation(G, a) for a in range(2, G.exponent)
                            if math.gcd(a, G.exponent) == 1)
                if p != tuple(range(len(p))))
    moved = next(i for i, j in enumerate(perm) if i != j)
    values = list(x.values)
    values[moved] = values[moved] + 1
    defect = _galois_defect_reference(G, values)
    assert defect and defect.startswith("Galois consistency fails")
    with pytest.raises(AssertionError) as err:
        CentralElement(G, tuple(values))
    assert str(err.value) == defect
    obj = {"group": G.name, "values": [serde.cyclo_to_json(v) for v in values]}
    with pytest.raises(ValueError) as err:
        serde.json_to_central(obj)
    assert str(err.value) == f"not a central element of Q[{G.name}]: {defect}"


def test_galois_defect_tests_only_the_generators_of_the_units(monkeypatch):
    # C200: 80 units a mod 200, generated by 3, 7 and 11; sigma_ab = sigma_a
    # sigma_b, so the check asks for those three permutations only
    G = group_from_catalog("C200")
    x = nrd_element(GroupAlgebraElement.from_coeffs(G, [2, 1] + [0] * 198))
    asked = []

    def counted(G, a):
        asked.append(a)
        return galois_permutation(G, a)

    monkeypatch.setattr(algebra, "galois_permutation", counted)
    assert galois_defect(G, x.values) is None
    assert asked == [3, 7, 11]
