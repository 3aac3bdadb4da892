"""Builders for the algebras under study.

* truncated_poly: Z = F[t]/(t^p) with delta = d/dt, the standard
  differentially simple coefficient algebra in characteristic p.
* quadratic_jordan: the rank-4 Jordan algebra of a quadratic form with
  basis 1, w1, w2, w3, where w1^2 = w2^2 = 1 = -w3^2 and wi wj = 0.
* kantor_double: K = Z + Zx with f(gx) = (fg)x and
  (fx)(gx) = delta(f) g - f delta(g).
* cheng_kac: the rank-8 superalgebra over Z, in the w-basis
  (1, w1, w2, w3 | x, x1, x2, x3) or, when sqrt(-1) exists, in the
  rescaled v-basis (1, v1, v2, v3 | y, y1, y2, y3) with vi^2 = -1.

Everything is generic over a unital commutative associative Z carrying
a derivation delta with Z delta(Z) = Z; builders validate that contract
on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldSpec
from .linalg import inverse
from .superalg import (LinearMap, SuperAlgebra, Verdict, _canonical, _entries,
                       _match, check_supercommutative, is_derivation,
                       is_isomorphism, sum_per_key)


@dataclass
class DifferentialAlgebra:
    """A commutative associative unital algebra with a derivation."""

    z: SuperAlgebra
    delta: LinearMap

    @property
    def field(self) -> FieldSpec:
        return self.z.field

    @property
    def dim(self) -> int:
        return self.z.n


def _validate_differential(d: DifferentialAlgebra):
    z = d.z
    if z.dim_odd:
        raise ValueError("coefficient algebra must be purely even")
    if z.unit_index is None:
        raise ValueError("coefficient algebra must be unital")
    if not check_supercommutative(z):
        raise ValueError("coefficient algebra must be commutative")
    v = is_derivation(z, d.delta)
    if not v:
        raise ValueError(f"delta is not a derivation: {v.witness}")
    # Z delta(Z) = Z: the products delta(e_g) e_i span Z, of rank dim Z
    g, i, k, v = _delta_table(d)
    if _canonical(z.field, g * z.n + i, k, v)[0].max(initial=-1) + 1 != z.n:
        raise ValueError("Z delta(Z) is a proper ideal; delta is not "
                         "differentiably simple here")


def truncated_poly(field: FieldSpec, p: int | None = None) -> DifferentialAlgebra:
    """Z = F[t]/(t^p) with delta = d/dt.  p must equal the field
    characteristic (otherwise delta(t^p) = p t^(p-1) would not vanish)."""
    if p is None:
        p = field.p
    if p != field.p:
        raise ValueError("truncation exponent must equal the characteristic")
    labels = [f"t^{k}" for k in range(p)]
    i, j = np.nonzero(np.add.outer(np.arange(p), np.arange(p)) < p)
    z = SuperAlgebra(field, p, 0, labels, (i, j, i + j, np.ones(i.size)),
                     unit_index=0)
    dm = np.zeros((p, p), dtype=field.dtype)
    for k in range(1, p):
        dm[k - 1, k] = k % field.p
    delta = LinearMap(z, z, 0, dm)
    d = DifferentialAlgebra(z, delta)
    _validate_differential(d)
    return d


_QUAD_SQUARES = (1, 1, -1)


def quadratic_jordan(field: FieldSpec) -> SuperAlgebra:
    """The Jordan algebra F1 + Fw1 + Fw2 + Fw3 of the quadratic form
    with w1^2 = w2^2 = 1 = -w3^2 and wi wj = 0 for i != j."""
    labels = ["1", "w1", "w2", "w3"]
    # 1 w_i = w_i = w_i 1 for i = 0..3, then w_i^2 for i = 1..3
    table = ([0, 0, 0, 0, 1, 2, 3, 1, 2, 3],
             [0, 1, 2, 3, 0, 0, 0, 1, 2, 3],
             [0, 1, 2, 3, 1, 2, 3, 0, 0, 0],
             [1, 1, 1, 1, 1, 1, 1, *_QUAD_SQUARES])
    return SuperAlgebra(field, 4, 0, labels, table, unit_index=0)


def _summed_table(field: FieldSpec, n: int, i, j, k, vals):
    """The terms vals at (i, j, k) summed per key by sum_per_key, as the
    nonzero entries (i, j, k, c) of a table on n basis vectors."""
    keys, sums = sum_per_key(field, (i * n + j) * n + k, vals)
    ij, k = np.divmod(keys, n)
    return (*np.divmod(ij, n), k, sums)


def _delta_table(dalg: DifferentialAlgebra):
    """The nonzero entries (i, j, k, c) of delta(e_i) e_j in Z, c the
    coefficient of e_k: one join of the entries (r, i) of delta with the
    constants T[r, j, k] on r."""
    r, i, dv = _entries(dalg.field, dalg.delta.matrix)
    ci, cj, ck, cc = dalg.z.coo()
    e, t = _match(r, ci)
    return _summed_table(dalg.field, dalg.dim, i[e], cj[t], ck[t],
                         dv[e] * cc[t])


def _odd_square(dalg: DifferentialAlgebra):
    """The nonzero entries (i, j, k, c) of (e_i x)(e_j x) = delta(e_i)
    e_j - e_i delta(e_j) in the commutative Z: the entries of
    _delta_table, and their swap negated."""
    i, j, k, d = _delta_table(dalg)
    return _summed_table(dalg.field, dalg.dim, np.r_[i, j], np.r_[j, i],
                         np.r_[k, k], np.r_[d, -d])


@dataclass
class KantorDouble:
    """K = Z + Zx with its source differential algebra and index maps."""

    alg: SuperAlgebra
    dalg: DifferentialAlgebra

    @property
    def dz(self) -> int:
        return self.dalg.dim

    def z_index(self, k: int) -> int:
        return k

    def x_index(self, k: int) -> int:
        return self.dz + k


def kantor_double(dalg: DifferentialAlgebra) -> KantorDouble:
    """The double K = Z + Zx of (Z, delta)."""
    z = dalg.z
    dz = z.n
    labels = list(z.labels) + [f"{lb}*x" for lb in z.labels]
    i, j, k, c = z.coo()
    xi, xj, xk, xc = _odd_square(dalg)
    # f g, f (gx), (gx) f and (fx)(gx) = delta(f) g - f delta(g)
    table = (np.concatenate([i, i, dz + j, dz + xi]),
             np.concatenate([j, dz + j, i, dz + xj]),
             np.concatenate([k, dz + k, dz + k, xk]),
             np.concatenate([c, c, c, xc]))
    alg = SuperAlgebra(z.field, dz, dz, labels, table,
                       unit_index=z.unit_index)
    return KantorDouble(alg, dalg)


# Cross products of the odd w-basis vectors: CROSS_W[i][j] = (sign, k)
# means x_i x x_j = sign * x_k, or None when i = j.  The orientation is
# positive on the pairs (1,2), (1,3), (3,2).
_CROSS_W = {
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (1, 3): (1, 2), (3, 1): (-1, 2),
    (3, 2): (1, 1), (2, 3): (-1, 1),
}

# Wedge for the v-basis: cyclic orientation 1^2 = 3, 2^3 = 1, 3^1 = 2.
_CROSS_V = {
    (1, 2): (1, 3), (2, 1): (-1, 3),
    (2, 3): (1, 1), (3, 2): (-1, 1),
    (3, 1): (1, 2), (1, 3): (-1, 2),
}


@dataclass
class ChengKac:
    """The rank-8 superalgebra over Z, with basis-family index helpers.

    Even families: 0 = scalar part Z1, 1..3 = Z w_i (or Z v_i).
    Odd families: 0 = Zx (or Zy), 1..3 = Z x_i (or Z y_i).
    Basis index = family * dim Z + coefficient index.
    """

    alg: SuperAlgebra
    dalg: DifferentialAlgebra
    basis: str

    @property
    def dz(self) -> int:
        return self.dalg.dim

    @property
    def n_even(self) -> int:
        return 4 * self.dz

    def even_index(self, family: int, k: int) -> int:
        return family * self.dz + k

    def odd_index(self, family: int, k: int) -> int:
        return self.n_even + family * self.dz + k

    def even_family(self, family: int):
        """Basis indices of Z w_family (family 0 is the scalar part)."""
        return [self.even_index(family, k) for k in range(self.dz)]

    def odd_family(self, family: int):
        return [self.odd_index(family, k) for k in range(self.dz)]

    def k_indices(self):
        """Indices of the embedded double K = Z1 + Zx."""
        return self.even_family(0) + self.odd_family(0)


_FINE = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}


def cheng_kac(dalg: DifferentialAlgebra, basis: str = "w") -> ChengKac:
    """The Cheng-Kac superalgebra J over (Z, delta).

    basis "w" is the integral basis; basis "v" is the rescaled one and
    requires a square root of -1 in the field.
    """
    if basis not in ("w", "v"):
        raise ValueError("basis must be 'w' or 'v'")
    z, f, dz = dalg.z, dalg.field, dalg.dim
    if basis == "v":
        f.sqrt_minus_one()      # raises when unavailable
    squares = (1, 1, -1) if basis == "w" else (-1, -1, -1)
    cross = _CROSS_W if basis == "w" else _CROSS_V
    cross_sign = -1 if basis == "w" else 1
    e, o = ("w", "x") if basis == "w" else ("v", "y")
    names = ["", f"{e}1", f"{e}2", f"{e}3", o, f"{o}1", f"{o}2", f"{o}3"]
    labels = [f"{zl}*{names[fam]}" if fam else zl
              for fam in range(8) for zl in z.labels]
    table = ([], [], [], [])

    def put(left, right, out, block, s=1):
        """Products (f left)(g right) = s c out for the entries (f, g, k,
        c) of block, each of left, right and out a family index: 0..3
        even, 4..7 odd."""
        i, j, k, c = block
        for part, x in zip(table, (i + left * dz, j + right * dz,
                                   k + out * dz, s * c)):
            part.append(x)

    t = z.coo()                         # f g
    d = _delta_table(dalg)              # delta(f) g
    tt, dt = (t[1], t[0], *t[2:]), (d[1], d[0], *d[2:])   # the swaps
    put(0, 0, 0, t)
    for a in range(1, 4):
        # even * even
        put(0, a, a, t)
        put(a, 0, a, t)
        put(a, a, 0, t, squares[a - 1])
        # (f w_a)(g x) = (delta(f) g) x_a, and the reverse order
        put(a, 4, 4 + a, d)
        put(4, a, 4 + a, dt)
        for b in range(1, 4):
            if a != b:
                sgn, c = cross[(a, b)]
                put(a, 4 + b, 4 + c, t, cross_sign * sgn)
                put(4 + b, a, 4 + c, tt, cross_sign * sgn)
    # even and odd parts commute through the scalar family
    for b in range(4):
        put(0, 4 + b, 4 + b, t)
        put(4 + b, 0, 4 + b, tt)
    # odd * odd: (fx)(gx) = delta(f) g - f delta(g)
    put(4, 4, 0, _odd_square(dalg))
    for b in range(1, 4):
        put(4, 4 + b, b, t, -1)
        put(4 + b, 4, b, t)

    fine = [_FINE[fam % 4] for fam in range(8) for _ in range(dz)]
    alg = SuperAlgebra(f, 4 * dz, 4 * dz, labels,
                       [np.concatenate(part) for part in table],
                       unit_index=z.unit_index, fine_label=fine)
    return ChengKac(alg, dalg, basis)


def w_to_v_change(ck_w: ChengKac, ck_v: ChengKac | None = None) -> LinearMap:
    """The isomorphism from the w-basis algebra to the v-basis algebra
    over the same field: 1 -> 1, w_1 -> -i v_1, w_2 -> -i v_2,
    w_3 -> v_3, x -> y, x_1 -> -i y_1, x_2 -> -i y_2, x_3 -> y_3
    (coefficientwise over Z), where i = sqrt(-1).

    Verified as a bijective homomorphism; raises on failure.
    """
    if ck_w.basis != "w":
        raise ValueError("source must be in the w-basis")
    if ck_v is None:
        ck_v = cheng_kac(ck_w.dalg, "v")
    if ck_v.basis != "v":
        raise ValueError("target must be in the v-basis")
    f = ck_w.alg.field
    i = f.sqrt_minus_one()
    mi = f.neg(i)
    dz = ck_w.dz
    coeffs_even = [f.one, mi, mi, f.one]
    coeffs_odd = [f.one, mi, mi, f.one]
    n = ck_w.alg.n
    m = np.zeros((n, n), dtype=f.dtype)
    for fam in range(4):
        for k in range(dz):
            m[ck_v.even_index(fam, k), ck_w.even_index(fam, k)] = \
                coeffs_even[fam]
            m[ck_v.odd_index(fam, k), ck_w.odd_index(fam, k)] = \
                coeffs_odd[fam]
    psi = LinearMap(ck_w.alg, ck_v.alg, 0, m)
    h = is_isomorphism(psi)
    if not h:
        raise ValueError(f"basis change is not an isomorphism: {h.witness}")
    return psi


def map_inverse(fmap: LinearMap) -> LinearMap:
    """Inverse of a bijective LinearMap."""
    return LinearMap(fmap.target, fmap.source, fmap.parity,
                     inverse(fmap.field, fmap.matrix), check=False)


def odd_part_squares_to_even(a: SuperAlgebra) -> Verdict:
    """Does the span of products of odd basis vectors equal the even
    part?  (Stated for the big superalgebra: J_1 J_1 = J_0.)  The rows
    (i n + j, k) of coo() with i and j odd are canonicalized
    (_canonical); the span is the even part iff they reduce to the unit
    rows e_0 ... e_{n0-1}."""
    n0 = a.dim_even
    i, j, k, c = a.coo()
    odd = (i >= n0) & (j >= n0)
    u, cell, _ = _canonical(a.field, i[odd] * a.n + j[odd], k[odd], c[odd])
    got = int(u.max(initial=-1)) + 1
    ok = got == n0 == u.size and bool(np.all(cell == u))
    return Verdict(ok, None if ok else {"got_dim": got, "want_dim": n0})


def differential_to_json(d: DifferentialAlgebra) -> dict:
    from .linalg import matrix_to_json
    return {"z": d.z.to_json(),
            "delta": matrix_to_json(d.field, d.delta.matrix)}


def differential_from_json(obj: dict) -> DifferentialAlgebra:
    from .linalg import matrix_from_json
    z = SuperAlgebra.from_json(obj["z"])
    delta = LinearMap(z, z, 0, matrix_from_json(z.field, obj["delta"]))
    d = DifferentialAlgebra(z, delta)
    _validate_differential(d)
    return d
