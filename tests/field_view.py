"""The tests' own splitting-field views.  A representation: rho(g) as a
matrix of CycloNum entries at the conductor, read entry by entry from the
integer images, with no code in common with the library's integer block
and Fourier paths.  The group ring: one CycloNum per label, with sums,
products and the involution taken on CycloNum, the reference for
GroupAlgebraElement's integer numerators."""

from grax.cyclotomic import CycloNum


def field_matrices(rep):
    """[rho(g) for each label g], each a list of rows of CycloNum."""
    c, n = rep.degree, rep.conductor
    d = len(rep.images[0]) // (c * c)
    return [[[CycloNum(n, img[(i * c + j) * d:(i * c + j + 1) * d]) for j in range(c)]
             for i in range(c)] for img in rep.images]


ZERO = CycloNum.from_rational(0)


def field_coeffs(coeffs):
    """A coefficient list (ints, Fractions or CycloNums) as CycloNums."""
    return [c if isinstance(c, CycloNum) else CycloNum.from_rational(c) for c in coeffs]


def field_add(a, b):
    return [x + y for x, y in zip(a, b)]


def field_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def field_mul(G, a, b):
    out = [ZERO] * G.order
    for g, x in enumerate(a):
        if x.is_zero():
            continue
        for h, y in enumerate(b):
            if not y.is_zero():
                k = G.mul(g, h)
                out[k] = out[k] + x * y
    return out


def field_scale(a, c):
    [c] = field_coeffs([c])
    return [x * c for x in a]


def field_involute(G, a):
    out = [ZERO] * G.order
    for g, x in enumerate(a):
        out[G.inv(g)] = x
    return out


def field_is_zero(a):
    return all(x.is_zero() for x in a)


def field_is_integral(a):
    return all(x.is_integral() and x.is_rational() for x in a)
