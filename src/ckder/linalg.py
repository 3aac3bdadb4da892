"""Exact dense/blocked linear algebra over FieldSpec scalars.

Matrices are NumPy arrays in the dtype their field picks
(FieldSpec.dtype), reduced mod p after every operation.  Every array
made or returned here, from eliminator rows to subspace bases and
solutions, has that dtype, and no routine branches on it.  The
arithmetic is exact: components are bounded by p**2 times the
contraction length, far below 2**53.

asfield is the one coercion routine: it casts arbitrary input to the
field's dtype and reduces it, and refuses a nonzero u component headed
for a prime field.  amod is the one reduction routine.  It reduces float
components with r = x - p*floor(x*(1/p)) and one correction step each
way, which is exact while every component satisfies |x| < 2**52 before
reduction: the floored quotient is then off by at most one, and every
product and difference in the formula is an integer below 2**53.

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
    np.multiply(x, 1.0 / p, out=out)
    np.floor(out, out=out)
    out *= -p
    out += x
    np.add(out, p, out=out, where=out < 0)
    np.subtract(out, p, out=out, where=out >= p)


def amod(field: FieldSpec, a):
    """Reduce an array mod p, componentwise on real and imaginary parts."""
    a = np.asarray(a)
    if a.dtype.kind not in "fc":
        return a % field.p
    out = np.empty(a.shape, dtype=a.dtype)
    if a.dtype.kind == "c":
        _reduce_into(a.real, field.p, out.real)
        _reduce_into(a.imag, field.p, out.imag)
    else:
        _reduce_into(a, field.p, out)
    return out[()] if out.ndim == 0 else out


def iszero(a) -> bool:
    return not np.any(a)


def mm(field: FieldSpec, a, b):
    return amod(field, np.asarray(a) @ np.asarray(b))


def asfield(field: FieldSpec, a):
    """a cast to the field's dtype and reduced mod p; raises FieldError
    when a nonzero u component would reach a prime field."""
    return amod(field, field.array(a))


class Eliminator:
    """Incremental Gaussian elimination with a fully reduced pivot set.

    Rows are fed in blocks.  Each block is first reduced against the
    accumulated pivot rows with one matmul (valid because the pivot
    columns of the accumulated rows form an identity), surviving rows
    are then absorbed in small chunks by a plain pivot loop.  The final
    row set, ordered by pivot column, is the canonical RREF of
    everything fed in; the result does not depend on feeding order.
    """

    _CHUNK = 128

    def __init__(self, field: FieldSpec, ncols: int):
        self.field = field
        self.ncols = ncols
        self._rows = np.zeros((min(128, max(ncols, 1)), ncols),
                              dtype=field.dtype)
        self.rank = 0
        self.pivcols: list[int] = []

    # -- internals -------------------------------------------------------

    def _coerce(self, rows):
        rows = asfield(self.field, rows)
        return rows[None, :] if rows.ndim == 1 else rows

    def _ensure_capacity(self, need: int):
        cap = self._rows.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap = min(max(cap * 2, 128), max(self.ncols, need))
        grown = np.zeros((cap, self.ncols), dtype=self.field.dtype)
        grown[:self.rank] = self._rows[:self.rank]
        self._rows = grown

    def _reduce_block(self, block):
        if self.rank and block.size:
            piv = np.asarray(self.pivcols, dtype=np.intp)
            block = block - block[:, piv] @ self._rows[:self.rank]
            block = amod(self.field, block)
        if block.size:
            block = block[block.any(axis=1)]
        return block

    def _absorb_chunk(self, chunk):
        """Plain RREF loop on a small chunk; returns new pivot rows."""
        new_rows = []
        new_cols = []
        while chunk.shape[0]:
            lead = (chunk != 0).argmax(axis=1)
            r = int(np.argmin(lead))
            c = int(lead[r])
            ival = self.field.inv(chunk[r, c])
            prow = amod(self.field, chunk[r] * ival)
            keep = np.ones(chunk.shape[0], dtype=bool)
            keep[r] = False
            chunk = chunk[keep]
            if chunk.shape[0]:
                chunk = amod(self.field, chunk - np.outer(chunk[:, c], prow))
                chunk = chunk[chunk.any(axis=1)]
            for i, row in enumerate(new_rows):
                if row[c]:
                    new_rows[i] = amod(self.field, row - row[c] * prow)
            new_rows.append(prow)
            new_cols.append(c)
        return new_rows, new_cols

    def add_rows(self, rows):
        block = self._reduce_block(self._coerce(rows))
        n = block.shape[0]
        for start in range(0, n, self._CHUNK):
            chunk = self._reduce_block(block[start:start + self._CHUNK])
            if not chunk.shape[0]:
                continue
            new_rows, new_cols = self._absorb_chunk(chunk)
            if not new_rows:
                continue
            newmat = np.stack(new_rows)
            if self.rank:
                cols = np.asarray(new_cols, dtype=np.intp)
                r = self._rows[:self.rank]
                r -= r[:, cols] @ newmat
                self._rows[:self.rank] = amod(self.field, r)
            self._ensure_capacity(self.rank + len(new_rows))
            self._rows[self.rank:self.rank + len(new_rows)] = newmat
            self.rank += len(new_rows)
            self.pivcols.extend(new_cols)

    # -- results ---------------------------------------------------------

    def rref(self):
        """Canonical RREF of everything fed in, and its pivot columns."""
        order = np.argsort(np.asarray(self.pivcols, dtype=np.intp)) \
            if self.pivcols else np.zeros(0, dtype=np.intp)
        out = self._rows[:self.rank][order]
        piv = [self.pivcols[i] for i in order]
        return out, piv

    def kernel_rows(self):
        """Canonical RREF basis of the kernel of the fed row system."""
        r, piv = self.rref()
        free = [c for c in range(self.ncols) if c not in set(piv)]
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
    m = np.asarray(m)
    e = Eliminator(field, m.shape[1])
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
            piv = np.asarray(self.pivots, dtype=np.intp)
            v = amod(self.field, v - v[..., piv] @ self.basis)
        return v

    def contains_vector(self, v) -> bool:
        return iszero(self.residual(v))

    def coords_of(self, v):
        """Coordinates of v in the basis, or None if v is outside.

        A 2-D v is taken row by row; None then means some row is
        outside."""
        v = asfield(self.field, v)
        c = v[..., np.asarray(self.pivots, dtype=np.intp)]
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


def matrix_to_json(field: FieldSpec, m) -> list:
    m = asfield(field, m)
    return [[field.scalar_to_json(x) for x in row] for row in m]


def matrix_from_json(field: FieldSpec, obj) -> np.ndarray:
    rows = [[field.scalar_from_json(x) for x in row] for row in obj]
    return asfield(field, rows).reshape(len(obj), -1)
