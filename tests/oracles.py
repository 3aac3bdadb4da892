"""The dense structure tensor, an oracle for the tests only: the package
reads a table as the COO entries of SuperAlgebra.coo() and builds no
dense n x n x n array."""

import numpy as np


def tensor(a):
    """T[i, j, k], the coefficient of e_k in e_i e_j, scattered from
    a.coo(); read-only."""
    i, j, k, c = a.coo()
    t = np.zeros((a.n, a.n, a.n), dtype=a.field.dtype)
    t[i, j, k] = c
    t.flags.writeable = False
    return t
