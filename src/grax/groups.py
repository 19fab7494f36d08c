"""Catalog of small finite groups given by verified multiplication tables.

Elements are canonical integer labels 0..order-1 with 0 the identity.
Available families: Cn, CnxCm, Dn (dihedral of order 2n, n >= 3), S3, S4,
A4, Q8.  Tables are checked for the group axioms at construction time.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field

# _finish checks a table in O(order^3) steps, so the catalog stops here
MAX_ORDER = 200


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    family: str
    params: tuple[int, ...]
    order: int
    mul_table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...] = field(repr=False)
    exponent: int = 0
    conjugacy_classes: tuple[tuple[int, ...], ...] = field(default=(), repr=False)
    class_of: tuple[int, ...] = field(default=(), repr=False)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    @property
    def identity(self) -> int:
        return 0

    def is_abelian(self) -> bool:
        return all(self.mul_table[a][b] == self.mul_table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def element_order(self, a: int) -> int:
        return _element_order(self.mul_table, a)

    def __hash__(self):
        # a catalog group is determined by its family and params; equality
        # still compares the whole table, so equal groups hash equal
        return hash((self.family, self.params))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _element_order(tbl, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = tbl[x][a]
        k += 1
    return k


def _finish(name: str, family: str, params: tuple[int, ...], table) -> FiniteGroup:
    n = len(table)
    tbl = tuple(tuple(row) for row in table)
    # identity at label 0
    for a in range(n):
        if tbl[0][a] != a or tbl[a][0] != a:
            raise ValueError(f"{name}: label 0 is not an identity")
    # associativity and latin-square property
    for a in range(n):
        if sorted(tbl[a]) != list(range(n)) or sorted(r[a] for r in tbl) != list(range(n)):
            raise ValueError(f"{name}: table is not a latin square")
    for a in range(n):
        for b in range(n):
            ab = tbl[a][b]
            for c in range(n):
                if tbl[ab][c] != tbl[a][tbl[b][c]]:
                    raise ValueError(f"{name}: associativity fails")
    inverse = [0] * n
    for a in range(n):
        inverse[a] = next(b for b in range(n) if tbl[a][b] == 0)
    exponent = math.lcm(*(_element_order(tbl, a) for a in range(n)))
    # conjugacy classes
    seen = [False] * n
    classes = []
    class_of = [0] * n
    for a in range(n):
        if seen[a]:
            continue
        cls = sorted({tbl[tbl[g][a]][inverse[g]] for g in range(n)})
        for x in cls:
            seen[x] = True
            class_of[x] = len(classes)
        classes.append(tuple(cls))
    return FiniteGroup(name, family, params, n, tbl, tuple(inverse), exponent,
                       tuple(classes), tuple(class_of))


def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _product_table(t1, t2):
    n1, n2 = len(t1), len(t2)

    def lab(a, b):
        return a * n2 + b

    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[lab(a1, b1)][lab(a2, b2)] = lab(t1[a1][a2], t2[b1][b2])
    return table


def _dihedral_table(n):
    # labels: r^k s^e  ->  k + n*e
    def lab(k, e):
        return k % n + n * (e % 2)

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for k1 in range(n):
        for e1 in range(2):
            for k2 in range(n):
                for e2 in range(2):
                    if e1 == 0:
                        k, e = k1 + k2, e2
                    else:
                        k, e = k1 - k2, 1 + e2
                    table[lab(k1, e1)][lab(k2, e2)] = lab(k, e)
    return table


def _perm_elements(n, even_only=False):
    perms = sorted(itertools.permutations(range(n)))
    if even_only:
        perms = [p for p in perms if perm_sign(p) == 1]
    return perms


def perm_sign(p) -> int:
    """Sign (+1 or -1) of a permutation given as a tuple of images."""
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _perm_table(perms):
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i][j] = index[tuple(p[q[x]] for x in range(len(p)))]
    return table


_QUAT_AXIS = {0: (1, "1"), 1: (-1, "1"), 2: (1, "i"), 3: (-1, "i"),
              4: (1, "j"), 5: (-1, "j"), 6: (1, "k"), 7: (-1, "k")}
_QUAT_LABEL = {(1, "1"): 0, (-1, "1"): 1, (1, "i"): 2, (-1, "i"): 3,
               (1, "j"): 4, (-1, "j"): 5, (1, "k"): 6, (-1, "k"): 7}
_QUAT_MUL = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
             ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
             ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
             ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
             ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}


def _quaternion_table():
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            s1, x1 = _QUAT_AXIS[a]
            s2, x2 = _QUAT_AXIS[b]
            s3, x3 = _QUAT_MUL[(x1, x2)]
            table[a][b] = _QUAT_LABEL[(s1 * s2 * s3, x3)]
    return table


_NAME_RE = re.compile(r"^(C|D)(\d+)$|^C(\d+)xC(\d+)$", re.IGNORECASE)


def group_from_catalog(name: str) -> FiniteGroup:
    """Build a catalog group by name ('C6', 'C2xC3', 'D4', 'S3', 'S4', 'A4', 'Q8'),
    cached on its canonical name, so that every spelling (case, spaces,
    leading zeros) gives one object."""
    key = name.strip()
    upper = key.upper()
    if upper in ("S3", "S4", "A4", "Q8"):
        return _catalog_group(upper, upper[0], (int(upper[1]),))
    m = _NAME_RE.match(key)
    if m is None:
        raise ValueError(f"unknown catalog group {name!r}")
    if m.group(3) is not None:
        n1, n2 = int(m.group(3)), int(m.group(4))
        if n1 < 1 or n2 < 1 or n1 * n2 > MAX_ORDER:
            raise ValueError(f"cyclic factors must be positive, of product at most {MAX_ORDER}")
        return _catalog_group(f"C{n1}xC{n2}", "CxC", (n1, n2))
    letter, n = m.group(1).upper(), int(m.group(2))
    if letter == "C":
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"cyclic order must be in 1..{MAX_ORDER}")
    elif not 3 <= n <= MAX_ORDER // 2:
        raise ValueError(f"dihedral catalog needs 3 <= n <= {MAX_ORDER // 2}")
    return _catalog_group(f"{letter}{n}", letter, (n,))


_TABLES = {"S": lambda n: _perm_table(_perm_elements(n)),
           "A": lambda n: _perm_table(_perm_elements(n, even_only=True)),
           "Q": lambda n: _quaternion_table(),
           "C": _cyclic_table, "D": _dihedral_table,
           "CxC": lambda n1, n2: _product_table(_cyclic_table(n1), _cyclic_table(n2))}


@functools.lru_cache(maxsize=None)
def _catalog_group(name: str, family: str, params: tuple[int, ...]) -> FiniteGroup:
    return _finish(name, family, params, _TABLES[family](*params))


def perm_elements_of(G: FiniteGroup):
    """The permutation underlying each label, for the symmetric/alternating families."""
    if G.family == "S":
        return _perm_elements(G.params[0])
    if G.family == "A":
        return _perm_elements(G.params[0], even_only=True)
    raise ValueError(f"{G.name} is not a permutation-family group")
