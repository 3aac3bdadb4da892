"""Derivation superalgebras by exact linear algebra.

derivation_algebra solves the super Leibniz rule as one large linear
system per parity.  Unknowns are the parity-allowed matrix entries of a
candidate map in column-major order; equations are generated sparsely
(one per basis pair and output coordinate) and eliminated in blocks.
inner_derivation_algebra spans the supercommutators of left
multiplications.  Both return canonical RREF bases of flattened
matrices, so results are deterministic and directly comparable.

The named derivations of the double K = Z + Zx and their forced
extensions to the big superalgebra are built from the closed formulas
and re-verified against the Leibniz rule on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructions import ChengKac, KantorDouble
from .linalg import Eliminator, Subspace, amod, asfield, kernel, solve_right
from .superalg import (LinearMap, SuperAlgebra, inner_derivation_rows,
                       is_derivation, super_commutator_rows)


class DerivationSpace:
    """Bases of the even and odd parts of a space of derivations.

    Bases are canonicalized: the flattened matrices (column-major) of
    each parity form a reduced-row-echelon set.  Every basis element is
    checked against the Leibniz rule on construction.
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
            for d in self.even_basis + self.odd_basis:
                v = is_derivation(algebra, d)
                if not v:
                    raise ValueError(
                        f"basis element fails the Leibniz rule: {v.witness}")
        self._even_sub = None
        self._odd_sub = None
        self._brackets = None

    def _canon(self, maps, parity):
        maps = list(maps)
        if not maps:
            return []
        a = self.algebra
        e = Eliminator(a.field, a.n * a.n)
        e.add_rows(np.stack([m.flatten() for m in maps]))
        rows, _ = e.rref()
        return [LinearMap.from_flat(a, a, parity, r, check=False)
                for r in rows]

    @property
    def dims(self):
        return (len(self.even_basis), len(self.odd_basis))

    @property
    def dim(self):
        return len(self.even_basis) + len(self.odd_basis)

    def subspace(self, parity: int) -> Subspace:
        """Canonical flattened-matrix span of one parity part."""
        cached = self._even_sub if parity == 0 else self._odd_sub
        if cached is None:
            maps = self.even_basis if parity == 0 else self.odd_basis
            n = self.algebra.n
            rows = np.stack([m.flatten() for m in maps]) if maps else None
            cached = Subspace(self.algebra.field, n * n, rows)
            if parity == 0:
                self._even_sub = cached
            else:
                self._odd_sub = cached
        return cached

    def structure_constants(self):
        """The bracket of the space in its own basis, even elements
        first: c[s, t, u] is the coordinate on basis element u of the
        super commutator of basis elements s and t.  Raises when the
        space is not closed under the bracket.  The array is computed
        once per space and is read-only."""
        if self._brackets is not None:
            return self._brackets
        f = self.algebra.field
        basis = self.even_basis + self.odd_basis
        m0, m = len(self.even_basis), len(basis)
        c = np.zeros((m, m, m), dtype=f.dtype)
        if m:
            mats = np.stack([d.matrix for d in basis])
            par = np.asarray([d.parity for d in basis])
            for s, rows, par_st in super_commutator_rows(f, mats, par):
                for parity, off in ((0, 0), (1, m0)):
                    sel = par_st == parity
                    co = self.subspace(parity).coords_of(rows[sel])
                    if co is None:
                        raise ValueError(
                            "derivation space is not bracket closed")
                    c[s, sel, off:off + co.shape[1]] = co
        c.flags.writeable = False
        self._brackets = c
        return c

    def contains_map(self, d: LinearMap) -> bool:
        return self.subspace(d.parity).contains_vector(d.flatten())

    def equals(self, other: "DerivationSpace") -> bool:
        return (self.subspace(0).equals(other.subspace(0))
                and self.subspace(1).equals(other.subspace(1)))


def span_of_maps(algebra: SuperAlgebra, maps) -> Subspace:
    """Canonical flattened span of a list of same-parity maps."""
    n = algebra.n
    if not maps:
        return Subspace(algebra.field, n * n)
    return Subspace(algebra.field, n * n,
                    np.stack([m.flatten() for m in maps]))


def _leibniz_kernel(a: SuperAlgebra, parity: int):
    """Canonical basis of the parity-homogeneous derivations of a."""
    f = a.field
    n = a.n
    par = a.parities
    # Unknowns: allowed entries (r, c) in column-major order.
    allowed = [(r, c) for c in range(n) for r in range(n)
               if par[r] == (par[c] + parity) % 2]
    uidx = {rc: t for t, rc in enumerate(allowed)}
    nu = len(allowed)
    targets_for = [[r for r in range(n) if par[r] == (par[k] + parity) % 2]
                   for k in range(n)]
    elim = Eliminator(f, nu)
    buf_rows: list[dict] = []
    flushed = 0
    schedule = [512, 1024, 2048, 4096]

    def flush():
        nonlocal flushed
        if not buf_rows:
            return
        block = np.zeros((len(buf_rows), nu), dtype=f.dtype)
        for t, row in enumerate(buf_rows):
            for u, c in row.items():
                block[t, u] = c
        elim.add_rows(block)
        buf_rows.clear()
        flushed += 1

    limit = schedule[0]
    for i in range(n):
        si = -1.0 if (parity and par[i]) else 1.0
        for j in range(n):
            rows: dict[int, dict] = {}
            for k, c in a.products.get((i, j), []):
                for r in targets_for[k]:
                    rows.setdefault(r, {})
                    u = uidx[(r, k)]
                    rows[r][u] = rows[r].get(u, 0) + c
            for m in targets_for[i]:
                for r, c in a.products.get((m, j), []):
                    rows.setdefault(r, {})
                    u = uidx[(m, i)]
                    rows[r][u] = rows[r].get(u, 0) - c
            for m in targets_for[j]:
                for r, c in a.products.get((i, m), []):
                    rows.setdefault(r, {})
                    u = uidx[(m, j)]
                    rows[r][u] = rows[r].get(u, 0) - si * c
            for r in sorted(rows):
                buf_rows.append(rows[r])
            if len(buf_rows) >= limit:
                flush()
                limit = schedule[min(flushed, len(schedule) - 1)]
    flush()
    kern = elim.kernel_rows()
    maps = []
    for row in kern:
        flat = np.zeros(n * n, dtype=f.dtype)
        for t, (r, c) in enumerate(allowed):
            flat[c * n + r] = row[t]
        maps.append(LinearMap.from_flat(a, a, parity, flat, check=False))
    return maps


def derivation_algebra(a: SuperAlgebra) -> DerivationSpace:
    """All superderivations of a, by solving the Leibniz system."""
    even = _leibniz_kernel(a, 0)
    odd = _leibniz_kernel(a, 1)
    return DerivationSpace(a, even, odd, canonicalize=True, validate=True)


def inner_derivation_algebra(a: SuperAlgebra) -> DerivationSpace:
    """Span of all D(e_i, e_j) = [L_i, L_j].

    The rows of inner_derivation_rows stream straight into per-parity
    eliminators, so memory stays at a few matrices of shape (n, n, n)
    even when n * n rows are fed.
    """
    n = a.n
    elims = {0: Eliminator(a.field, n * n), 1: Eliminator(a.field, n * n)}
    for _, rows, par_ij in inner_derivation_rows(a):
        keep = np.any(rows, axis=1)
        for parity in (0, 1):
            block = rows[keep & (par_ij == parity)]
            if block.size:
                elims[parity].add_rows(block)

    def build(parity):
        return [LinearMap.from_flat(a, a, parity, r, check=False)
                for r in elims[parity].rref()[0]]

    return DerivationSpace(a, build(0), build(1),
                           canonicalize=False, validate=True)


# -- named derivations of the double K = Z + Zx --------------------------


def _mult_matrix(z: SuperAlgebra, a):
    """Multiplication by the element a of the commutative algebra Z."""
    a = asfield(z.field, a)
    return amod(z.field, np.einsum("i,icr->rc", a, z.tensor()))


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
    cols = np.stack([
        amod(f, 2.0 * z.tensor()[k].T @ dm).flatten(order="F")
        for k in range(dz)], axis=1)
    avec = solve_right(f, cols, comm.flatten(order="F"))
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
    cols = np.stack([
        amod(f, z.tensor()[k].T @ dm).flatten(order="F")
        for k in range(dz)], axis=1)
    if solve_right(f, cols, mu.flatten(order="F")) is None:
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
    outside = np.asarray([t for t in range(ck.alg.n) if t not in set(ck.k_indices())],
                         dtype=np.intp)
    if outside.size and np.any(d.matrix[np.ix_(outside, idx)]):
        raise ValueError("map does not preserve the embedded double")
    sub = d.matrix[np.ix_(idx, idx)]
    return LinearMap(kd.alg, kd.alg, d.parity, sub)


# -- fine grading of a derivation space ----------------------------------


GRADES = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass
class GradedDerivations:
    """Fine-degree components of a derivation space; the components
    direct-sum to the whole space (validated on construction)."""

    space: DerivationSpace
    components: dict

    def component(self, grade) -> DerivationSpace:
        return self.components[tuple(grade)]

    def dims_table(self):
        return {g: self.components[g].dims for g in GRADES}


def grade_derivations(ds: DerivationSpace) -> GradedDerivations:
    """Split a derivation space along the fine grading of its algebra."""
    a = ds.algebra
    if a.fine_label is None:
        raise ValueError("algebra carries no fine grading")
    f = a.field
    n = a.n
    fine = a.fine_label
    comps = {}
    for g in GRADES:
        parts = {}
        for parity in (0, 1):
            maps = ds.even_basis if parity == 0 else ds.odd_basis
            if not maps:
                parts[parity] = []
                continue
            v = np.stack([m.flatten() for m in maps])
            banned = [c * n + r for c in range(n) for r in range(n)
                      if ((fine[r][0] - fine[c][0]) % 2,
                          (fine[r][1] - fine[c][1]) % 2) != g]
            if banned:
                lam = solve_kernel_rows(f, v[:, np.asarray(banned, dtype=np.intp)])
            else:
                lam = np.eye(len(maps), dtype=f.dtype)
            rows = amod(f, lam @ v)
            e = Eliminator(f, n * n)
            e.add_rows(rows)
            parts[parity] = [LinearMap.from_flat(a, a, parity, r, check=False)
                             for r in e.rref()[0]]
        comps[g] = DerivationSpace(a, parts[0], parts[1],
                                   canonicalize=False, validate=False)
    gd = GradedDerivations(ds, comps)
    for parity in (0, 1):
        total = sum(c.dims[parity] for c in comps.values())
        if total != ds.dims[parity]:
            raise ValueError("fine components do not sum to the whole space")
        acc = None
        for g in GRADES:
            s = comps[g].subspace(parity)
            acc = s if acc is None else acc.sum(s)
        if not acc.equals(ds.subspace(parity)):
            raise ValueError("fine components do not span the space")
    return gd


def solve_kernel_rows(f, m):
    """Rows lam with lam @ m = 0, canonical."""
    return kernel(f, m.T).basis


def stable_der_double(kd: KantorDouble, der_k: DerivationSpace,
                      inder_k: DerivationSpace) -> DerivationSpace:
    """The characteristic-independent subalgebra of Der(K): all even
    derivations plus the inner odd ones.  Verified closed under the
    supercommutator."""
    ds = DerivationSpace(kd.alg, der_k.even_basis, inder_k.odd_basis,
                         canonicalize=True, validate=True)
    ds.structure_constants()  # raises unless the span is bracket closed
    return ds
