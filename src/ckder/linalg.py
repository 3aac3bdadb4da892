"""Exact dense linear algebra over FieldSpec scalars.

Matrices are NumPy arrays in the dtype their field picks
(FieldSpec.dtype), reduced mod p after every operation.  Every array
made or returned here, from eliminator rows to subspace bases and
solutions, has that dtype, and no routine branches on it.  The
arithmetic is exact: components are bounded by p**2 times the
contraction length, and exact_terms is the longest contraction that
stays below 2**52.  check_exact_range refuses a longer one in mm,
Subspace.residual and Subspace.coords_of.  The Eliminator, plain
Gauss-Jordan one pivot at a time, takes one product of two reduced
elements per entry and step, so it checks that one product once and is
exact for every p that passes.

asfield is the one coercion routine: it casts arbitrary input to the
field's dtype and reduces it, and refuses a nonzero u component headed
for a prime field.  amod is the one reduction routine.  It reduces the
array as one flat run of float64 components, two per F_{p^2} element,
with r = x - p*floor(x/p) in four passes, which is exact while every
component satisfies |x| < 2**52 before reduction (and p < 2**26, so
that one product of two elements stays in that range).  Write
x = q p + r with 0 <= r < p.  The quotient fl(x/p) is correctly
rounded, so it errs by at most 2**-53 |x/p| < 1/(2p).  When r = 0, x/p
is the integer q, below 2**52 and so exact; otherwise x/p = q + r/p
lies at least 1/p from every integer.  Either way floor(fl(x/p)) = q,
and q p and x - q p are integers below 2**52, computed exactly, with
no correction step.  inverses inverts whole arrays by Fermat's little
theorem.

Every reported basis is in canonical reduced row echelon form (pivots 1,
pivot columns strictly increasing and cleared above and below), so equal
subspaces have bitwise-equal bases and serialized output is
deterministic.
"""

from __future__ import annotations

import numpy as np

from .field import FieldSpec


def _reduce_into(x, p: int, out):
    """out = x mod p in {0, ..., p-1} for an integer-valued float array."""
    np.divide(x, p, out=out)
    np.floor(out, out=out)
    out *= -p
    out += x


def amod(field: FieldSpec, a):
    """Reduce an array mod p in one pass over its float components; a
    scalar comes back as a scalar, and the input is left unchanged."""
    a = np.asarray(a)
    if a.dtype.kind not in "fc":
        return a % field.p
    out = np.empty(a.shape, dtype=a.dtype)
    _reduce_into(a.ravel().view(np.float64), field.p,
                 out.ravel().view(np.float64))
    return out[()] if out.ndim == 0 else out


def inverses(field: FieldSpec, a):
    """The inverses of an array of nonzero reduced elements, by Fermat's
    little theorem: n^-1 = n^(p-2) over F_p by repeated squaring, and
    over F_{p^2} (a0 + a1 u)^-1 = (a0 - a1 u) N^-1 with N = a0^2 + a1^2
    in F_p.  Every product is of two reduced components."""
    a = np.asarray(a)
    base = amod(field, (a * a.conj()).real) if field.ext else a
    out = np.ones(base.shape, dtype=np.float64)
    e = field.p - 2
    while e:
        if e & 1:
            out = amod(field, out * base)
        e >>= 1
        if e:
            base = amod(field, base * base)
    return amod(field, a.conj() * out) if field.ext else out


def exact_terms(field: FieldSpec) -> int:
    """The most products of two that a reduced element can take on and
    stay below 2**52, the exact range of amod: terms (p-1)^2 + p, or
    2 terms (p-1)^2 + p over F_{p^2}, must be below it."""
    return (2 ** 52 - 1 - field.p) // ((2 if field.ext else 1)
                                       * (field.p - 1) ** 2)


def check_exact_range(field: FieldSpec, terms: int):
    """Raise ValueError if a contraction of `terms` products of two,
    added to a reduced element, can leave the exact range of amod."""
    if terms > exact_terms(field):
        bound = terms * (2 if field.ext else 1) * (field.p - 1) ** 2 + field.p
        raise ValueError(
            f"{terms} terms over {field} can reach {bound}, "
            "beyond the exact range 2**52 of the reduction")


def iszero(a) -> bool:
    return not np.any(a)


def mm(field: FieldSpec, a, b):
    a = np.asarray(a)
    check_exact_range(field, a.shape[-1])
    return amod(field, a @ np.asarray(b))


def asfield(field: FieldSpec, a):
    """a cast to the field's dtype and reduced mod p; raises FieldError
    when a nonzero u component would reach a prime field."""
    return amod(field, field.array(a))


class Eliminator:
    """Incremental Gauss-Jordan elimination with a fully reduced pivot set.

    Each pivot row leads with 1 in its pivot column and is zero in every
    other pivot column.  add_rows stacks the new rows under the pivot
    rows and makes pivots one at a time: the old ones first, then each
    new row still nonzero, scaled to lead 1.  A pivot clears its column
    from every other row with a nonzero there by one rank-1 update,
    reduced at once, so every entry takes one product of two reduced
    elements per step, and add_rows checks once that this product is
    within the exact range.  Rows that vanish are dropped.  The pivot rows, ordered
    by pivot column, are the canonical RREF of everything fed in,
    whatever the feeding order.
    """

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rows = np.zeros((0, ncols), dtype=field.dtype)
        self.rank = 0
        self.pivcols: list[int] = []

    def add_rows(self, rows):
        field = self.field
        check_exact_range(field, 1)
        m = np.vstack([self._rows, np.atleast_2d(asfield(field, rows))])
        live = np.ones(m.shape[0], dtype=bool)
        for i in range(m.shape[0]):
            if i < self.rank:
                c = self.pivcols[i]
            else:
                nz = np.flatnonzero(m[i])
                if not nz.size:
                    live[i] = False
                    continue
                c = int(nz[0])
                m[i] = amod(field, m[i] * field.inv(m[i, c]))
                self.pivcols.append(c)
            hit = np.flatnonzero(m[:, c])
            hit = hit[hit != i]
            if hit.size:
                m[hit] = amod(field, m[hit] - np.outer(m[hit, c], m[i]))
        self._rows = m[live]
        self.rank = len(self.pivcols)

    def rref(self):
        """Canonical RREF of everything fed in, and its pivot columns."""
        order = np.argsort(np.asarray(self.pivcols, dtype=np.intp))
        return self._rows[order], [self.pivcols[i] for i in order]

    def kernel_rows(self):
        """Canonical RREF basis of the kernel of the fed row system."""
        r, piv = self.rref()
        pivots = set(piv)
        free = [c for c in range(self.ncols) if c not in pivots]
        k = np.zeros((len(free), self.ncols), dtype=self.field.dtype)
        if not free:
            return k
        for t, c in enumerate(free):
            k[t, c] = 1.0
        if piv:
            k[:, np.asarray(piv, dtype=np.intp)] = \
                amod(self.field, -r[:, np.asarray(free, dtype=np.intp)].T)
        sub = Eliminator(self.field, self.ncols)
        sub.add_rows(k)
        return sub.rref()[0]


def rref(field: FieldSpec, m):
    """Canonical RREF; returns (reduced matrix, rank, pivot columns)."""
    e = Eliminator(field, np.shape(m)[1])
    e.add_rows(m)
    r, piv = e.rref()
    return r, e.rank, piv


def rank(field: FieldSpec, m) -> int:
    return rref(field, m)[1]


def kernel(field: FieldSpec, m) -> "Subspace":
    """Right kernel {v : m v = 0} as a canonical Subspace of F^ncols."""
    m = np.asarray(m)
    e = Eliminator(field, m.shape[1])
    e.add_rows(m)
    return Subspace(field, m.shape[1], e.kernel_rows(), _canonical=True)


class Subspace:
    """A subspace of F^ambient with a canonical RREF row basis."""

    def __init__(self, field: FieldSpec, ambient: int, rows=None, _canonical=False):
        self.field = field
        self.ambient = ambient
        if rows is None:
            rows = np.zeros((0, ambient), dtype=field.dtype)
        rows = np.asarray(rows)
        if rows.size and rows.shape[1] != ambient:
            raise ValueError("row length does not match ambient dimension")
        if _canonical:
            self.basis = rows
            self.pivots = [int((r != 0).argmax()) for r in self.basis]
        else:
            r, _, piv = rref(field, rows.reshape(-1, ambient))
            self.basis = r
            self.pivots = piv

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def residual(self, v):
        """v reduced against the basis; zero iff v is in the subspace."""
        v = asfield(self.field, v)
        if self.dim:
            check_exact_range(self.field, self.dim)
            piv = np.asarray(self.pivots, dtype=np.intp)
            v = amod(self.field, v - v[..., piv] @ self.basis)
        return v

    def contains_vector(self, v) -> bool:
        return iszero(self.residual(v))

    def coords_of(self, v):
        """Coordinates of v in the basis, or None if v is outside.

        A 2-D v is taken row by row; None then means some row is
        outside."""
        check_exact_range(self.field, self.dim)
        v = self.field.array(v)
        c = amod(self.field, v[..., np.asarray(self.pivots, dtype=np.intp)])
        if not iszero(amod(self.field, c @ self.basis - v)):
            return None
        return c

    def contains(self, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        return iszero(self.residual(other.basis))

    def equals(self, other: "Subspace") -> bool:
        return (self.ambient == other.ambient and self.dim == other.dim
                and np.array_equal(self.basis, other.basis))

    def sum(self, other: "Subspace") -> "Subspace":
        rows = np.vstack([self.basis, other.basis])
        return Subspace(self.field, self.ambient, rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: RREF [[A|A],[B|0]]; zero-left rows carry A∩B."""
        n = self.ambient
        top = np.hstack([self.basis, self.basis])
        bot = np.hstack([other.basis, np.zeros_like(other.basis)])
        r, _, _ = rref(self.field, np.vstack([top, bot]))
        left_zero = ~r[:, :n].any(axis=1)
        return Subspace(self.field, n, r[left_zero][:, n:])

    def is_direct_sum(self, other: "Subspace") -> bool:
        return self.sum(other).dim == self.dim + other.dim


def solve_right(field: FieldSpec, a, b):
    """One solution x of a x = b (free variables zero), or None."""
    a = asfield(field, a)
    b = asfield(field, b).reshape(a.shape[0], -1)
    aug = np.hstack([a, b])
    r, _, piv = rref(field, aug)
    ncols = a.shape[1]
    x = np.zeros((ncols, b.shape[1]), dtype=field.dtype)
    for row, c in enumerate(piv):
        if c >= ncols:
            return None
        x[c] = r[row, ncols:]
    if not iszero(amod(field, a @ x - b)):
        return None
    return x if b.shape[1] > 1 else x[:, 0]


def inverse(field: FieldSpec, m):
    m = asfield(field, m)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("inverse of a non-square matrix")
    r, rk, _ = rref(field, np.hstack([m, np.eye(n, dtype=field.dtype)]))
    if rk < n or not iszero(amod(field, r[:, :n] - np.eye(n))):
        raise ValueError("matrix is singular")
    return r[:, n:]


def signed_permutation_inverse(field: FieldSpec, m):
    """The inverse of a signed permutation matrix, its transpose; raises
    ValueError unless m is square with one nonzero entry, 1 or -1, in
    every row and every column."""
    m = asfield(field, m)
    nz = m != 0
    if (m.ndim != 2 or m.shape[0] != m.shape[1]
            or np.any(nz.sum(axis=0) != 1)
            or np.any(nz.sum(axis=1) != 1)
            or np.any((m[nz] != 1) & (m[nz] != field.p - 1))):
        raise ValueError("not a signed permutation matrix")
    return m.T


def matrix_to_json(field: FieldSpec, m) -> list:
    m = asfield(field, m)
    return [[field.scalar_to_json(x) for x in row] for row in m]


def matrix_from_json(field: FieldSpec, obj) -> np.ndarray:
    rows = [[field.scalar_from_json(x) for x in row] for row in obj]
    return asfield(field, rows).reshape(len(obj), -1)
