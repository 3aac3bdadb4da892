"""Derivation superalgebras by exact linear algebra.

derivation_algebra solves the super Leibniz rule as one linear system
per parity.  Unknowns are the parity-allowed matrix entries of a
candidate map in column-major order; equations are generated sparsely
(one per basis pair and output coordinate), and over the Cheng-Kac
tables none has more than three cells.  superalg._sparse_kernel solves
it by structured Gaussian elimination: vectorized substitution rounds
remove the equations of one and two cells, and only the equations that
survive are eliminated, one connected block of equations and unknowns
at a time.
inner_derivation_algebra spans the supercommutators of left
multiplications, whose nonzero entries come from one join over the
structure constants, eliminated block by block in the same way.  Both
return canonical RREF bases of flattened matrices, so results are
deterministic and directly comparable, and grade_derivations splits
such a basis along the fine grading.  The bracket of a space is a join
too: a coordinate over a canonical basis is the entry at its pivot.

The named derivations of the double K = Z + Zx and their forced
extensions to the big superalgebra are built from the closed formulas
and re-verified against the Leibniz rule on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import ChengKac, KantorDouble
from .linalg import amod, asfield, mm, rref, solve_right
from .superalg import (LinearMap, SuperAlgebra, _commutator_entries,
                       _eliminate_blocks, _entries, _first_nonzero_key,
                       _match, _sparse_kernel, expand_runs,
                       inner_derivation_entries, is_derivation,
                       leibniz_violation, sum_per_key)


class DerivationSpace:
    """Bases of the even and odd parts of a space of derivations.

    Bases are canonical: the flattened matrices (column-major) of each
    parity form a reduced-row-echelon set, as coordinates() relies on,
    and with canonicalize off the caller passes such sets (subsets of
    the rows of one, say).  Every basis element is checked against the
    Leibniz rule on construction, all in one join (leibniz_violation).
    """

    def __init__(self, algebra: SuperAlgebra, even_maps, odd_maps,
                 canonicalize: bool = True, validate: bool = True):
        self.algebra = algebra
        if canonicalize:
            even_maps = self._canon(even_maps, 0)
            odd_maps = self._canon(odd_maps, 1)
        self.even_basis = list(even_maps)
        self.odd_basis = list(odd_maps)
        if validate:
            bad = leibniz_violation(algebra, self.even_basis + self.odd_basis)
            if bad is not None:
                s, i, j = bad
                raise ValueError(
                    f"basis element {s} fails the Leibniz rule on the pair "
                    f"({algebra.labels[i]}, {algebra.labels[j]})")
        self._brackets = None
        self._nonzero = None

    def _canon(self, maps, parity):
        a = self.algebra
        flat = np.reshape([m.flatten() for m in maps], (-1, a.n * a.n))
        return [LinearMap.from_flat(a, a, parity, r, check=False)
                for r in rref(a.field, flat)[0]]

    @property
    def dims(self):
        return (len(self.even_basis), len(self.odd_basis))

    @property
    def dim(self):
        return len(self.even_basis) + len(self.odd_basis)

    def part(self, parity: int) -> "DerivationSpace":
        """The even (0) or odd (1) part, on the same canonical basis."""
        return DerivationSpace(
            self.algebra, [] if parity else self.even_basis,
            self.odd_basis if parity else [], canonicalize=False,
            validate=False)

    def structure_constants(self):
        """The bracket of the space in its own basis, even elements
        first: c[s, t, u] is the coordinate on basis element u of the
        super commutator of basis elements s and t.  Raises when the
        space is not closed under the bracket.  The array is computed
        once per space and is read-only."""
        if self._brackets is None:
            a, m = self.algebra, self.dim
            co = self.coordinates(*_commutator_entries(
                a.field, a.n, np.repeat([0, 1], self.dims), *self.entries()))
            if co is None:
                raise ValueError("derivation space is not bracket closed")
            c = np.zeros((m * m, m), dtype=a.field.dtype)
            c[co[0], co[1]] = co[2]
            self._brackets = c.reshape(m, m, m)
            self._brackets.flags.writeable = False
        return self._brackets

    def entries(self):
        """The nonzero entries (u, r, c, B_u[r, c]) of the basis maps,
        computed once per space; the arrays are read-only."""
        if self._nonzero is None:
            a = self.algebra
            self._nonzero = _entries(a.field, np.reshape(
                [d.matrix for d in self.even_basis + self.odd_basis],
                (-1, a.n, a.n)))
            for x in self._nonzero:
                x.flags.writeable = False
        return self._nonzero

    def coordinates(self, keys, vals):
        """Coordinates (q, u, value) over the basis of the maps q given
        by their nonzero entries, keyed q n^2 + cell, or None when some
        map is outside the span.  The basis is canonical RREF, so the
        coordinate on u is the entry at the pivot of u (even and odd
        pivots are distinct cells); a second join, coordinates times
        basis entries, must give the maps back."""
        a = self.algebra
        nn = a.n ** 2
        u, r, c, v = self.entries()
        pivot = np.full(self.dim, nn, dtype=np.int64)
        np.minimum.at(pivot, u, c * a.n + r)
        owner = np.full(nn + 1, -1, dtype=np.int64)
        owner[pivot] = np.arange(self.dim)
        at = owner[keys % nn]
        on = at >= 0
        co = (keys[on] // nn, at[on], vals[on])
        bad = combination_mismatch(a.field, nn, co, (u, c * a.n + r, v),
                                   (keys, vals))
        return co if bad is None else None

    def equals(self, other: "DerivationSpace") -> bool:
        """Equal dims and entries(): canonical bases are bitwise equal."""
        return ((self.algebra.n, self.dims) == (other.algebra.n, other.dims)
                and all(map(np.array_equal, self.entries(), other.entries())))


def combination_mismatch(field, nn: int, coords, basis, target):
    """The least key q nn + cell at which sum_u x[q, u] B_u differs from
    the target map q, or None.  coords are the nonzero (q, u, x), basis
    the nonzero entries (u, cell, value) of the maps B_u, and target the
    keys q nn + cell and the values of the nonzero target entries; one
    join on u, summed with the negated target per key."""
    (q, u, x), (bu, bcell, bv) = coords, basis
    e, b = _match(u, bu)
    return _first_nonzero_key(
        field, np.concatenate([q[e] * nn + bcell[b], target[0]]),
        np.concatenate([x[e] * bv[b], -target[1]]))


def _fan_out(a: SuperAlgebra, q):
    """Pairs (t, r) with r over the basis vectors of parity q[t]: one
    contiguous run per t, since the even basis comes first."""
    de = a.dim_even
    return expand_runs(np.where(q == 0, 0, de), np.where(q == 0, de, a.n - de))


def _leibniz_kernel(a: SuperAlgebra, parity: int):
    """A basis of the parity-homogeneous derivations of a, not yet
    canonical; the caller canonicalizes it.

    The unknowns are the parity-allowed entries (r, c) of the map, in
    column-major order; the equation at (i, j, r) is coordinate r of
    D(e_i e_j) - D(e_i) e_j - s_i e_i D(e_j) = 0, s_i = (-1)^(|D||i|).
    Every structure constant feeds three term families of it, built as
    index arrays from coo() and summed per (equation, unknown) cell by
    sum_per_key, and _sparse_kernel solves the system."""
    f = a.field
    n = a.n
    par = a.parities
    allowed = np.flatnonzero((par[None, :] == (par[:, None] + parity) % 2)
                             .ravel())          # c * n + r, column-major
    nu = allowed.size
    uidx = np.full(n * n, -1, dtype=np.int64)
    uidx[allowed] = np.arange(nu)
    i, j, k, c = a.coo()
    keys, cells, vals = [], [], []
    # D(e_i e_j): entry (i, j, k, c) adds c at (i, j, r), unknown (r, k)
    t, r = _fan_out(a, par[k] ^ parity)
    keys.append((i[t] * n + j[t]) * n + r)
    cells.append(uidx[k[t] * n + r])
    vals.append(c[t])
    # D(e_i) e_j: entry (m, j, r, c) adds -c at (i, j, r), unknown (m, i)
    t, x = _fan_out(a, par[i] ^ parity)
    keys.append((x * n + j[t]) * n + k[t])
    cells.append(uidx[x * n + i[t]])
    vals.append(-c[t])
    # s_i e_i D(e_j): entry (i, m, r, c) adds -s_i c at (i, j, r),
    # unknown (m, j)
    t, y = _fan_out(a, par[j] ^ parity)
    keys.append((i[t] * n + y) * n + k[t])
    cells.append(uidx[y * n + j[t]])
    vals.append(-(1.0 - 2.0 * parity * par[i[t]]) * c[t])
    uniq, sums = sum_per_key(
        f, np.concatenate(keys) * nu + np.concatenate(cells),
        np.concatenate(vals))
    basis = _sparse_kernel(f, uniq, sums, nu)
    flat = np.zeros((basis.shape[0], n * n), dtype=f.dtype)
    flat[:, allowed] = basis
    return [LinearMap.from_flat(a, a, parity, v, check=False) for v in flat]


def derivation_algebra(a: SuperAlgebra) -> DerivationSpace:
    """All superderivations of a, by solving the Leibniz system."""
    even = _leibniz_kernel(a, 0)
    odd = _leibniz_kernel(a, 1)
    return DerivationSpace(a, even, odd, canonicalize=True, validate=True)


def inner_derivation_algebra(a: SuperAlgebra) -> DerivationSpace:
    """Span of all D(e_i, e_j) = [L_i, L_j]; see _inner_span."""
    return DerivationSpace(a, *_inner_span(a), canonicalize=False,
                           validate=True)


def _inner_span(a: SuperAlgebra):
    """The even and the odd maps of the canonical RREF basis of the span
    of all D(e_i, e_j).

    The nonzero entries of every D(e_i, e_j) come from one join (see
    inner_derivation_entries).  The rows of each parity are eliminated
    one connected block at a time on the cells they use, and the block
    RREFs sorted by pivot are the canonical RREF of the span."""
    nn = a.n * a.n
    keys, vals = inner_derivation_entries(a)
    q, cell = np.divmod(keys, nn)
    odd = a.parities[q // a.n] ^ a.parities[q % a.n]

    def build(parity):
        sel = odd == parity
        used, col = np.unique(cell[sel], return_inverse=True)
        rows = _eliminate_blocks(a.field, q[sel], col, vals[sel], used, nn,
                                 lambda elim: elim.rref()[0])
        rows = rows[np.argsort((rows != 0).argmax(axis=1))]
        return [LinearMap.from_flat(a, a, parity, r, check=False)
                for r in rows]

    return build(0), build(1)


# -- named derivations of the double K = Z + Zx --------------------------


def _mult_matrix(z: SuperAlgebra, a):
    """Multiplication by the element a of the commutative algebra Z."""
    return z.left_mult(a).matrix


def _z_delta(z: SuperAlgebra, dm):
    """The maps e_k delta, k over the basis of Z, flattened column-major
    as the columns of one matrix: they span Z delta."""
    n = z.n
    return mm(z.field, z.tensor().transpose(0, 2, 1), dm) \
        .transpose(0, 2, 1).reshape(n, n * n).T


def lift_even_der(kd: KantorDouble, mu) -> LinearMap:
    """The even derivation of K restricting to mu on Z.

    Requires mu to be a derivation of Z with [mu, delta] = 2 a delta for
    some a in Z; then the lift sends fx to (mu(f) + a f) x.  Raises when
    the commutator is not a Z-multiple of delta.
    """
    z = kd.dalg.z
    f = z.field
    mu = asfield(f, mu)
    v = is_derivation(z, LinearMap(z, z, 0, mu))
    if not v:
        raise ValueError(f"mu is not a derivation of Z: {v.witness}")
    dm = kd.dalg.delta.matrix
    comm = amod(f, mu @ dm - dm @ mu)
    dz = z.n
    avec = solve_right(f, 2 * _z_delta(z, dm), comm.flatten(order="F"))
    if avec is None:
        raise ValueError("[mu, delta] is not in 2 Z delta")
    m = np.zeros((2 * dz, 2 * dz), dtype=f.dtype)
    m[:dz, :dz] = mu
    m[dz:, dz:] = amod(f, mu + _mult_matrix(z, avec))
    out = LinearMap(kd.alg, kd.alg, 0, m)
    _assert_der(kd.alg, out)
    return out


def odd_der_eta(kd: KantorDouble, a) -> LinearMap:
    """The odd derivation vanishing on Z with x -> a, fx -> f a."""
    z = kd.dalg.z
    dz = z.n
    m = np.zeros((2 * dz, 2 * dz), dtype=z.field.dtype)
    m[:dz, dz:] = _mult_matrix(z, a)
    out = LinearMap(kd.alg, kd.alg, 1, m)
    _assert_der(kd.alg, out)
    return out


def odd_der_char3(kd: KantorDouble, mu, check: bool = True) -> LinearMap:
    """The extra odd derivation in characteristic 3: for mu = b delta,
    z -> mu(z) x and fx -> delta(mu(f)).  Raises unless char = 3 and mu
    is a Z-multiple of delta.

    The candidate map satisfies the Leibniz rule only when mu commutes
    with delta, which for mu = b delta means delta(b) = 0.  With check
    left on, anything else raises; check=False returns the raw candidate
    so callers can inspect the failure themselves."""
    z = kd.dalg.z
    f = z.field
    if f.p != 3:
        raise ValueError("this derivation exists only in characteristic 3")
    mu = asfield(f, mu)
    dm = kd.dalg.delta.matrix
    dz = z.n
    if solve_right(f, _z_delta(z, dm), mu.flatten(order="F")) is None:
        raise ValueError("mu is not in Z delta")
    m = np.zeros((2 * dz, 2 * dz), dtype=f.dtype)
    m[dz:, :dz] = mu
    m[:dz, dz:] = amod(f, dm @ mu)
    out = LinearMap(kd.alg, kd.alg, 1, m)
    if check:
        _assert_der(kd.alg, out)
    return out


def _assert_der(a, d):
    v = is_derivation(a, d)
    if not v:
        raise AssertionError(f"constructed map fails Leibniz: {v.witness}")


# -- forced extensions to the big superalgebra ---------------------------


def extend_even_der(ck: ChengKac, dk: LinearMap) -> LinearMap:
    """The unique extension of an even derivation of K to the whole
    superalgebra: with dk|_Z = mu and dk(x) = a x, the extension acts as
    mu on each Z w_i and as mu - a on each Z x_i (coefficientwise)."""
    if dk.parity != 0:
        raise ValueError("expected an even derivation of K")
    dz = ck.dz
    z = ck.dalg.z
    f = z.field
    _assert_der(dk.source, dk)
    mu = dk.matrix[:dz, :dz]
    # dk(x) = a x: a is the coefficient column of the image of 1*x.
    avec = amod(f, dk.matrix[dz:, dz + z.unit_index])
    ma = _mult_matrix(z, avec)
    n = ck.alg.n
    m = np.zeros((n, n), dtype=f.dtype)
    for fam in range(4):
        rows = np.asarray(ck.even_family(fam), dtype=np.intp)
        m[np.ix_(rows, rows)] = mu
    block_x = amod(f, mu + ma)
    block_xi = amod(f, mu - ma)
    for fam in range(4):
        rows = np.asarray(ck.odd_family(fam), dtype=np.intp)
        m[np.ix_(rows, rows)] = block_x if fam == 0 else block_xi
    out = LinearMap(ck.alg, ck.alg, 0, m)
    _assert_der(ck.alg, out)
    return out


def extend_odd_eta(ck: ChengKac, a) -> LinearMap:
    """The odd derivation of the big superalgebra extending the eta
    family: Z -> 0, fx -> f a, f w_i -> -(a f) x_i, f x_i -> 0."""
    z = ck.dalg.z
    f = z.field
    ma = _mult_matrix(z, a)
    n = ck.alg.n
    m = np.zeros((n, n), dtype=f.dtype)
    zrows = np.asarray(ck.even_family(0), dtype=np.intp)
    xcols = np.asarray(ck.odd_family(0), dtype=np.intp)
    m[np.ix_(zrows, xcols)] = ma
    for fam in range(1, 4):
        wcols = np.asarray(ck.even_family(fam), dtype=np.intp)
        xirows = np.asarray(ck.odd_family(fam), dtype=np.intp)
        m[np.ix_(xirows, wcols)] = amod(f, -ma)
    out = LinearMap(ck.alg, ck.alg, 1, m)
    _assert_der(ck.alg, out)
    return out


def restrict_to_k(ck: ChengKac, d: LinearMap, kd: KantorDouble) -> LinearMap:
    """Restriction of a derivation of the big superalgebra to the
    embedded double K = Z1 + Zx.  Raises when K is not preserved."""
    idx = np.asarray(ck.k_indices(), dtype=np.intp)
    outside = np.ones(ck.alg.n, dtype=bool)
    outside[idx] = False
    if np.any(d.matrix[outside][:, idx]):
        raise ValueError("map does not preserve the embedded double")
    sub = d.matrix[np.ix_(idx, idx)]
    return LinearMap(kd.alg, kd.alg, d.parity, sub)


# -- fine grading of a derivation space ----------------------------------


GRADES = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass
class GradedDerivations:
    """Fine-degree components of a derivation space; their bases
    partition the canonical basis of the space."""

    space: DerivationSpace
    components: dict

    def component(self, grade) -> DerivationSpace:
        return self.components[tuple(grade)]

    def dims_table(self):
        return {g: self.components[g].dims for g in GRADES}


def grade_derivations(ds: DerivationSpace) -> GradedDerivations:
    """Split a derivation space along the fine grading of its algebra.

    The entry (r, c) of a map has fine degree fine[r] - fine[c].  The
    canonical RREF of a direct sum of spaces on disjoint coordinates is
    the union of their RREFs, so a space is graded exactly when every
    map of its canonical basis is homogeneous; the components are then
    that basis sorted by degree.  Raises ValueError on a basis map with
    entries in two fine degrees."""
    a = ds.algebra
    if a.fine_label is None:
        raise ValueError("algebra carries no fine grading")
    fine = np.asarray(a.fine_label)
    deg = (fine[:, None, :] - fine[None, :, :]) % 2
    grade_of = deg[..., 0] + 2 * deg[..., 1]   # index into GRADES
    parts = {g: ([], []) for g in GRADES}
    for d in ds.even_basis + ds.odd_basis:
        found = np.flatnonzero(np.bincount(grade_of[d.matrix != 0],
                                           minlength=len(GRADES)))
        if found.size != 1:
            raise ValueError("a basis map has entries in the fine degrees "
                             f"{[GRADES[t] for t in found]}: the space is "
                             "not graded")
        parts[GRADES[found[0]]][d.parity].append(d)
    return GradedDerivations(ds, {
        g: DerivationSpace(a, even, odd, canonicalize=False, validate=False)
        for g, (even, odd) in parts.items()})


def stable_der_double(kd: KantorDouble, der_k: DerivationSpace,
                      inder_k: DerivationSpace) -> DerivationSpace:
    """The characteristic-independent subalgebra of Der(K): all even
    derivations plus the inner odd ones.  Verified closed under the
    supercommutator."""
    ds = DerivationSpace(kd.alg, der_k.even_basis, inder_k.odd_basis,
                         canonicalize=True, validate=True)
    ds.structure_constants()  # raises unless the span is bracket closed
    return ds
