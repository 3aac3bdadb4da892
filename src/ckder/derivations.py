"""Derivation superalgebras by exact linear algebra.

A space of derivations is stored as the nonzero entries of a canonical
basis: per parity, the flattened (column-major) basis maps form a
reduced-row-echelon set (superalg._canonical), so equal spaces are
bitwise equal, and a coordinate over the basis is the entry at a pivot.
derivation_algebra solves the super Leibniz rule as one sparse system
per parity, the Leibniz join of the unit maps (_leibniz_system), summed
one range of equations at a time and solved by superalg._sparse_kernel;
inner_derivation_algebra spans the supercommutators D(e_u, e_v) of left
multiplications, joined only at the pairs u <= v, one range of u at a
time (_inner_span), and keeps the coordinates of every D(e_u, e_v);
the bracket of a space is joined the same way, at the pairs s <= t of
its basis (_bracket_coordinates); grade_derivations splits a basis by
fine degree.

The named derivations of the double K = Z + Zx and their forced
extensions to the big superalgebra are built from the closed formulas
and re-verified against the Leibniz rule on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import ChengKac, KantorDouble, _delta_table
from .linalg import amod, asfield, solve_right
from .superalg import (TERM_BUDGET, LinearMap, SuperAlgebra, _brackets,
                       _canonical, _chain, _first_difference,
                       _leibniz_terms, _map_stack, _match, _ranges,
                       _sparse_kernel, _upper_pairs, _upper_weights,
                       inner_derivation_entries, is_derivation,
                       leibniz_violation, sum_per_key)


class DerivationSpace:
    """A space of derivations, stored as its dims and the nonzero entries
    of its canonical basis maps, even ones first (entries()).

    The constructor takes lists of LinearMaps and from_entries a stack
    of maps (superalg._chain); with canonicalize off they must already
    be canonical, even maps first.  Every basis map is checked against
    the Leibniz rule (leibniz_violation, in ranges of the first index x
    of the equations).  even_basis and odd_basis are dense views, built
    on each read."""

    def __init__(self, algebra: SuperAlgebra, even_maps, odd_maps,
                 canonicalize: bool = True, validate: bool = True):
        even, odd = list(even_maps), list(odd_maps)
        self._store(algebra, np.repeat([0, 1], [len(even), len(odd)]),
                    _map_stack(algebra.field, even + odd)[1], canonicalize,
                    validate)

    @classmethod
    def from_entries(cls, algebra: SuperAlgebra, parities, entries,
                     canonicalize: bool = True, validate: bool = True):
        """The space of the maps q of the given parities, given by their
        nonzero reduced entries (q, r, c, M_q[r, c])."""
        space = cls.__new__(cls)
        space._store(algebra, parities, entries, canonicalize, validate)
        return space

    def over(self, algebra: SuperAlgebra) -> "DerivationSpace":
        """The same space for algebra, the table of self.algebra over a
        larger field: a canonical basis stays canonical under extension
        of scalars, so only its entries are cast, and the Leibniz rule is
        checked again over the new field."""
        pars, (u, r, c, v) = self.stack()
        return DerivationSpace.from_entries(
            algebra, pars, (u, r, c, asfield(algebra.field, v)),
            canonicalize=False)

    def _store(self, a, parities, entries, canonicalize, validate):
        self.algebra, self._brackets = a, None
        # the coordinates (a n + b, u, x) of every D(e_a, e_b) over the
        # basis, kept by inner_derivation_algebra, which has them
        self.inner_coordinates = None
        q, r, c, v = entries
        odd = np.asarray(parities, dtype=bool)
        # odd maps on the cells past n^2: their pivots follow the even ones
        cell = (odd[q] * a.n + c) * a.n + r
        if canonicalize:
            q, cell, v = _canonical(a.field, q, cell, v)
            odd = np.zeros(q.max(initial=-1) + 1, dtype=bool)
            odd[q] = cell >= a.n ** 2
        order = np.lexsort((cell, q))
        c, r = np.divmod(cell[order] % a.n ** 2, a.n)
        self._entries = (q[order], r, c, v[order])
        for x in self._entries:
            x.flags.writeable = False
        self.dims = (int(np.sum(~odd)), int(np.sum(odd)))
        bad = leibniz_violation(a, *self.stack()) if validate else None
        if bad is not None:
            raise ValueError(
                f"basis element {bad[0]} fails the Leibniz rule on the pair "
                f"({a.labels[bad[1]]}, {a.labels[bad[2]]})")

    @property
    def dim(self):
        return self.dims[0] + self.dims[1]

    def stack(self):
        """The basis as a stack of maps (parities, entries())."""
        return np.repeat([0, 1], self.dims), self._entries

    def _maps(self, parity):
        a, (u, r, c, v) = self.algebra, self.part(parity).entries()
        m = np.zeros((self.dims[parity], a.n, a.n), dtype=a.field.dtype)
        m[u, r, c] = v
        return [LinearMap(a, a, parity, x, check=False) for x in m]

    even_basis = property(lambda self: self._maps(0),
                          doc="The even basis maps, built from entries().")
    odd_basis = property(lambda self: self._maps(1),
                         doc="The odd basis maps, built from entries().")

    def _subspace(self, basis) -> "DerivationSpace":
        """The span of the basis maps of the given increasing indices."""
        u, r, c, v = self._entries
        sel = np.isin(u, basis)
        return DerivationSpace.from_entries(
            self.algebra, np.asarray(basis) >= self.dims[0],
            (np.searchsorted(basis, u[sel]), r[sel], c[sel], v[sel]),
            canonicalize=False, validate=False)

    def part(self, parity: int) -> "DerivationSpace":
        """The even (0) or odd (1) part, on the same canonical basis."""
        return self._subspace(np.arange(self.dims[parity])
                              + parity * self.dims[0])

    def bracket_coordinates(self):
        """The bracket of the space in its own basis, as coordinates()
        gives them: (s m + t, u, value), the coordinate on u of the super
        commutator of basis elements s and t, m = dim; computed once
        (_bracket_coordinates), read-only.  Raises when the space is not
        bracket closed."""
        if self._brackets is None:
            self._brackets = _bracket_coordinates(self)
            for x in self._brackets:
                x.flags.writeable = False
        return self._brackets

    def structure_constants(self):
        """bracket_coordinates() as a new dense array c[s, t, u]."""
        m, (q, u, x) = self.dim, self.bracket_coordinates()
        c = np.zeros((m * m, m), dtype=self.algebra.field.dtype)
        c[q, u] = x
        return c.reshape(m, m, m)

    def entries(self):
        """The nonzero entries (u, r, c, B_u[r, c]) of the basis maps,
        sorted by u and then by the cell c n + r; the arrays are
        read-only."""
        return self._entries

    def coordinates(self, keys, vals):
        """Coordinates (q, u, value) over the basis of the maps q given
        by their nonzero entries, keyed q n^2 + cell, or None when some
        map is outside the span.  Over the canonical basis the coordinate
        on u is the entry at the pivot of u, its first cell; a second
        join, coordinates times basis entries, must give the maps back."""
        a, nn = self.algebra, self.algebra.n ** 2
        u, r, c, v = self._entries
        cell = c * a.n + r
        owner = np.full(nn, -1)
        first = np.diff(u, prepend=-1) != 0
        owner[cell[first]] = u[first]
        at = owner[keys % nn]
        on = at >= 0
        co = (keys[on] // nn, at[on], vals[on])
        bad = _first_difference(a.field, combination_entries(
            a.field, a.n, co, self._entries), (keys, vals))
        return co if bad is None else None

    def equals(self, other: "DerivationSpace") -> bool:
        """Equal dims and entries(): canonical bases are bitwise equal."""
        return ((self.algebra.n, self.dims) == (other.algebra.n, other.dims)
                and all(map(np.array_equal, self.entries(), other.entries())))


def combination_entries(field, n: int, coords, basis):
    """The n x n maps sum_u x[q, u] B_u as sum_per_key returns them,
    keyed q n^2 + c n + r: coords are the nonzero (q, u, x), basis the
    nonzero entries (u, r, c, value) of the B_u; one join on u."""
    (q, u, x), (bu, r, c, v) = coords, basis
    e, b = _match(u, bu)
    return sum_per_key(field, (q[e] * n + c[b]) * n + r[b], x[e] * v[b])


def _mirrored(field, k: int, parities, s, t, u, x):
    """Coordinates (s k + t, u, x) of the commutators of every ordered
    pair of k maps of the given parities, sorted, from those (s, t, u, x)
    of the pairs s <= t: [M_t, M_s] = -(-1)^(|s||t|) [M_s, M_t]."""
    off = s != t
    sign = 2.0 * (parities[s[off]] * parities[t[off]]) - 1.0
    q = np.concatenate([s * k + t, t[off] * k + s[off]])
    u = np.concatenate([u, u[off]])
    x = np.concatenate([x, amod(field, sign * x[off])])
    order = np.lexsort((u, q))
    return q[order], u[order], x[order]


def _bracket_coordinates(ds: DerivationSpace, budget=TERM_BUDGET):
    """DerivationSpace.bracket_coordinates: the brackets of the pairs s
    <= t of basis maps only, in ranges of s of at most budget terms or a
    single s (superalg._ranges, _upper_weights), each range put in
    coordinates (DerivationSpace.coordinates); the pairs t > s are their
    mirrors (_mirrored)."""
    a, m = ds.algebra, ds.dim
    par, _ = stack = ds.stack()
    parts = [(np.zeros(0, dtype=np.int64),) * 3
             + (np.zeros(0, dtype=a.field.dtype),)]
    for s0, s1 in _ranges(_upper_weights(a.n, stack), budget):
        pairs = _upper_pairs(s0, s1, m)
        co = ds.coordinates(*_brackets(a.field, a.n, stack, stack, pairs))
        if co is None:
            raise ValueError("derivation space is not bracket closed")
        parts.append((*pairs[co[0]].T, *co[1:]))
    return _mirrored(a.field, m, par,
                     *(np.concatenate(x) for x in zip(*parts)))


def _leibniz_system(a: SuperAlgebra, parity: int, budget=TERM_BUDGET):
    """The Leibniz system of the parity-homogeneous derivations of a, as
    sum_per_key returns it, keys e nu + u, with nu and the cells c n + r
    of the nu unknowns.

    The unknowns are the parity-allowed entries (r, c) of the map, in
    column-major order, and the coefficient of unknown u in equation e
    is the Leibniz rule at e of the map whose only entry is a 1 at u.
    So the system is the Leibniz join (superalg._leibniz_terms) of those
    nu unit maps, whose keys e nu + u are already the system's: each
    range of the first index x is summed on its own, and the ranges
    concatenate in key order.  On a table with a mirror_sign only the
    equations at x <= j are made."""
    f, n, par = a.field, a.n, a.parities
    allowed = np.flatnonzero((par[None, :] == (par[:, None] + parity) % 2)
                             .ravel())          # c * n + r, column-major
    nu = allowed.size
    c, r = np.divmod(allowed, n)
    units = (np.arange(nu), r, c, np.ones(nu, dtype=f.dtype))
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=f.dtype))]
    for keys, vals in _leibniz_terms(a, np.full(nu, parity), units, budget):
        parts.append(sum_per_key(f, keys, vals))
        del keys, vals  # freed before the next range is built
    uniq, sums = (np.concatenate(x) for x in zip(*parts))
    return uniq, sums, nu, allowed


def _leibniz_kernel(a: SuperAlgebra, parity: int, budget=TERM_BUDGET):
    """A basis of the parity-homogeneous derivations of a, as a stack of
    maps (see superalg._chain), not yet canonical: _sparse_kernel on the
    Leibniz system (_leibniz_system)."""
    keys, vals, nu, allowed = _leibniz_system(a, parity, budget)
    k, x, v = _sparse_kernel(a.field, keys, vals, nu)
    c, r = np.divmod(allowed[x], a.n)
    return np.full(k.max(initial=-1) + 1, parity), (k, r, c, v)


def derivation_algebra(a: SuperAlgebra,
                       budget=TERM_BUDGET) -> DerivationSpace:
    """All superderivations of a, by solving the Leibniz system."""
    return DerivationSpace.from_entries(a, *_chain(
        _leibniz_kernel(a, 0, budget), _leibniz_kernel(a, 1, budget)))


def inner_derivation_algebra(a: SuperAlgebra,
                             budget=TERM_BUDGET) -> DerivationSpace:
    """Span of all D(e_i, e_j) = [L_i, L_j], canonical (_inner_span),
    keeping the coordinates of every D(e_i, e_j) over its basis as
    inner_coordinates."""
    stack, coords = _inner_span(a, budget)
    ds = DerivationSpace.from_entries(a, *stack, canonicalize=False)
    ds.inner_coordinates = coords
    for x in coords:
        x.flags.writeable = False
    return ds


def _inner_span(a: SuperAlgebra, budget=TERM_BUDGET):
    """The canonical basis of the span of the D(e_u, e_v), as a stack
    (superalg._chain), and the coordinates (u n + v, b, x) of every
    D(e_u, e_v) over it, sorted.

    D(e_v, e_u) = -(-1)^(|u||v|) D(e_u, e_v), so only the pairs u <= v
    are joined (inner_derivation_entries), in ranges of u of at most
    budget terms or a single u (superalg._ranges, _upper_weights).  Each
    range is canonicalized with the basis found so far (_canonical), on
    the cells (|D| n + c) n + r of DerivationSpace.  The coordinates of
    a map are its entries at the pivots, kept keyed by pivot cell.  The
    pivots of a span are pivots of every larger span, so when a range
    adds pivots, a map joined before has on them the entries sum_b x_b
    B_b[p] of the basis rows b it has coordinates on."""
    f, n, nn = a.field, a.n, a.n * a.n
    par = a.parities
    i, j, k, c = a.coo()
    row, cell = np.zeros((2, 0), dtype=np.int64)
    val = np.zeros(0, dtype=f.dtype)
    pivots = cell
    coords = [(cell, cell, val)]      # (u n + v, pivot cell, x)
    for u0, u1 in _ranges(_upper_weights(n, (par, (i, k, j, c))), budget):
        pairs = _upper_pairs(u0, u1, n)
        keys, vals = inner_derivation_entries(a, pairs)
        if not keys.size:
            continue
        q, at = np.divmod(keys, nn)
        u, v = pairs[q].T
        at += (par[u] ^ par[v]) * nn
        basis = row, cell, val
        row, cell, val = _canonical(
            f, np.concatenate([row, pivots.size + q]),
            np.concatenate([cell, at]), np.concatenate([val, vals]))
        # rows come in the order of their pivots, their least cells
        old, pivots = pivots, np.full(row.max() + 1, 2 * nn)
        np.minimum.at(pivots, row, cell)
        fresh = np.zeros(2 * nn, dtype=bool)
        fresh[pivots] = True
        on = fresh[at]
        fresh[old] = False
        hit = fresh[basis[1]]
        if hit.any():
            pk, pc, x = (np.concatenate(y) for y in zip(*coords))
            b, bc, bv = (y[hit] for y in basis)
            e, h = _match(pc, old[b])
            add = sum_per_key(f, pk[e] * 2 * nn + bc[h], x[e] * bv[h])
            coords = [(pk, pc, x), (*np.divmod(add[0], 2 * nn), add[1])]
        coords.append((u[on] * n + v[on], at[on], vals[on]))
    pk, pc, x = (np.concatenate(y) for y in zip(*coords))
    c, r = np.divmod(cell % nn, n)
    return (pivots >= nn, (row, r, c, val)), _mirrored(
        f, n, par, *np.divmod(pk, n), np.searchsorted(pivots, pc), x)


# -- named derivations of the double K = Z + Zx --------------------------


def _mult_matrix(z: SuperAlgebra, a):
    """Multiplication by the element a of the commutative algebra Z."""
    return z.left_mult(a).matrix


def _z_delta(dalg):
    """The maps e_k delta, k over the basis of Z, flattened column-major
    as the columns of one matrix: they span Z delta.  Row c n + r of
    column k is the entry (c, k, r) of delta(e_c) e_k (_delta_table)."""
    n = dalg.dim
    c, k, r, v = _delta_table(dalg)
    out = np.zeros((n * n, n), dtype=dalg.field.dtype)
    out[c * n + r, k] = v
    return out


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
    avec = solve_right(f, 2 * _z_delta(kd.dalg), comm.flatten(order="F"))
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
    if solve_right(f, _z_delta(kd.dalg), mu.flatten(order="F")) is None:
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
    dz, z, f = ck.dz, ck.dalg.z, ck.dalg.z.field
    _assert_der(dk.source, dk)
    mu = dk.matrix[:dz, :dz]
    # dk(x) = a x: a is the coefficient column of the image of 1*x.
    avec = amod(f, dk.matrix[dz:, dz + z.unit_index])
    ma = _mult_matrix(z, avec)
    m = np.zeros((ck.alg.n, ck.alg.n), dtype=f.dtype)
    for fam in range(4):
        w, x = ck.even_family(fam), ck.odd_family(fam)
        m[np.ix_(w, w)] = mu
        m[np.ix_(x, x)] = amod(f, mu - ma if fam else mu + ma)
    out = LinearMap(ck.alg, ck.alg, 0, m)
    _assert_der(ck.alg, out)
    return out


def extend_odd_eta(ck: ChengKac, a) -> LinearMap:
    """The odd derivation of the big superalgebra extending the eta
    family: Z -> 0, fx -> f a, f w_i -> -(a f) x_i, f x_i -> 0."""
    f, ma = ck.dalg.z.field, _mult_matrix(ck.dalg.z, a)
    m = np.zeros((ck.alg.n, ck.alg.n), dtype=f.dtype)
    m[np.ix_(ck.even_family(0), ck.odd_family(0))] = ma
    for fam in range(1, 4):
        m[np.ix_(ck.odd_family(fam), ck.even_family(fam))] = amod(f, -ma)
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
    u, r, c, _ = ds.entries()
    count = np.bincount(u * 4 + grade_of[r, c], minlength=4 * ds.dim)
    mixed = np.flatnonzero((count.reshape(-1, 4) != 0).sum(axis=1) != 1)
    if mixed.size:
        found = np.flatnonzero(count[4 * mixed[0]:4 * mixed[0] + 4])
        raise ValueError("a basis map has entries in the fine degrees "
                         f"{[GRADES[t] for t in found]}: the space is "
                         "not graded")
    grade = count.reshape(-1, 4).argmax(axis=1)
    return GradedDerivations(ds, {
        g: ds._subspace(np.flatnonzero(grade == t))
        for t, g in enumerate(GRADES)})


def stable_der_double(kd: KantorDouble, der_k: DerivationSpace,
                      inder_k: DerivationSpace) -> DerivationSpace:
    """The characteristic-independent subalgebra of Der(K): all even
    derivations plus the inner odd ones.  Verified closed under the
    supercommutator."""
    ds = DerivationSpace.from_entries(
        kd.alg, *_chain(der_k.part(0).stack(), inder_k.part(1).stack()))
    ds.bracket_coordinates()  # raises unless the span is bracket closed
    return ds
