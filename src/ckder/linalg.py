"""Exact dense/blocked linear algebra over FieldSpec scalars.

Matrices are NumPy arrays in the dtype their field picks
(FieldSpec.dtype), reduced mod p after every operation.  Every array
made or returned here, from eliminator rows to subspace bases and
solutions, has that dtype, and no routine branches on it.  The
arithmetic is exact: components are bounded by p**2 times the
contraction length, and exact_terms is the longest contraction that
stays below 2**52.  check_exact_range refuses a longer one in mm,
Subspace.residual, Subspace.coords_of and the eliminator, whose
Gauss-Jordan rounds make at most exact_terms pivots each.

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


def _unit_triangular_inverse(field: FieldSpec, u):
    """(I + N)^-1 for a unit upper triangular u = I + N by doubling:
    the product of the factors I + (-N)^(2^j), taken until the power
    vanishes.  Its entries must be reduced, and its size within
    exact_terms."""
    eye = np.eye(u.shape[0], dtype=field.dtype)
    power = amod(field, eye - u)
    inv = eye + power
    power = amod(field, power @ power)
    while power.any():
        inv = amod(field, inv + inv @ power)
        power = amod(field, power @ power)
    return inv


class Eliminator:
    """Incremental Gaussian elimination with a fully reduced pivot set.

    Rows are fed in blocks.  Each block is first reduced against the
    accumulated pivot rows with one matmul (valid because the pivot
    columns of the accumulated rows form an identity).  The surviving
    rows are absorbed _CHUNK at a time by Gauss-Jordan in rounds: each
    round makes every distinct leading column of the chunk a pivot at
    once, up to the exact_terms of the field, and clears those columns
    from all other rows of the chunk with one matmul each.  One more
    matmul then clears the new pivot columns from the accumulated rows.
    The final row set, ordered by pivot column, is the canonical RREF of
    everything fed in, whatever the feeding order.
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
            check_exact_range(self.field, self.rank)
            piv = np.asarray(self.pivcols, dtype=np.intp)
            block = block - block[:, piv] @ self._rows[:self.rank]
            block = amod(self.field, block)
        return block[block.any(axis=1)]

    def _absorb_chunk(self, m):
        """Gauss-Jordan in rounds on a chunk of reduced nonzero rows.

        A round takes one row per distinct leading column of the rows
        left, the first such row, at most exact_terms of them, and
        scales each to lead 1.  On those columns the picked rows form a
        unit upper triangle I + N; multiplying by its inverse makes them
        an identity there.  One matmul then clears the columns from the
        pivot rows of earlier rounds, and one from the rows not picked,
        of which those that vanish are dropped.  Every contraction has
        at most one term per picked row.  Returns the pivot rows, fully
        reduced, and their columns."""
        field = self.field
        most = exact_terms(field)
        piv, cols, rest = m[:0], [], m
        while rest.shape[0]:
            lead = (rest != 0).argmax(axis=1)
            lc, first = np.unique(lead, return_index=True)
            lc, first = lc[:most], first[:most]
            s = amod(field, rest[first]
                     * inverses(field, rest[first, lc])[:, None])
            if lc.size > 1:
                s = amod(field, _unit_triangular_inverse(field, s[:, lc]) @ s)
            if piv.shape[0]:
                piv = amod(field, piv - piv[:, lc] @ s)
            rest = np.delete(rest, first, axis=0)
            if rest.shape[0]:
                rest = amod(field, rest - rest[:, lc] @ s)
                rest = rest[rest.any(axis=1)]
            piv = np.vstack([piv, s])
            cols.extend(lc.tolist())
        return piv, cols

    def add_rows(self, rows):
        block = self._reduce_block(self._coerce(rows))
        for start in range(0, block.shape[0], self._CHUNK):
            chunk = block[start:start + self._CHUNK]
            if start:
                # the pivots of the chunks before this one are new
                chunk = self._reduce_block(chunk)
                if not chunk.shape[0]:
                    continue
            newmat, new_cols = self._absorb_chunk(chunk)
            if self.rank:
                check_exact_range(self.field, len(new_cols))
                cols = np.asarray(new_cols, dtype=np.intp)
                r = self._rows[:self.rank]
                r -= r[:, cols] @ newmat
                self._rows[:self.rank] = amod(self.field, r)
            self._ensure_capacity(self.rank + len(new_cols))
            self._rows[self.rank:self.rank + len(new_cols)] = newmat
            self.rank += len(new_cols)
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
    """Canonical RREF; returns (reduced matrix, rank, pivot columns).
    Only the columns in use reach the eliminator: a zero column never
    pivots and stays zero in the RREF."""
    m = np.asarray(m)
    used = np.flatnonzero(m.any(axis=0))
    if used.size == m.shape[1]:
        e = Eliminator(field, m.shape[1])
        e.add_rows(m)
        r, piv = e.rref()
        return r, e.rank, piv
    r, rk, piv = rref(field, m[:, used])
    out = np.zeros((rk, m.shape[1]), dtype=field.dtype)
    out[:, used] = r
    return out, rk, used[piv].tolist()


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


def matrix_to_json(field: FieldSpec, m) -> list:
    m = asfield(field, m)
    return [[field.scalar_to_json(x) for x in row] for row in m]


def matrix_from_json(field: FieldSpec, obj) -> np.ndarray:
    rows = [[field.scalar_from_json(x) for x in row] for row in obj]
    return asfield(field, rows).reshape(len(obj), -1)
