"""The tests' own splitting-field view of a representation: rho(g) as a
matrix of CycloNum entries at the conductor, read entry by entry from the
integer images, with no code in common with the library's integer block
and Fourier paths."""

from grax.cyclotomic import CycloNum


def field_matrices(rep):
    """[rho(g) for each label g], each a list of rows of CycloNum."""
    c, n = rep.degree, rep.conductor
    d = len(rep.images[0]) // (c * c)
    return [[[CycloNum(n, img[(i * c + j) * d:(i * c + j + 1) * d]) for j in range(c)]
             for i in range(c)] for img in rep.images]
