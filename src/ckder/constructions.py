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
from .linalg import Subspace, amod, inverse, rank
from .superalg import (LinearMap, SuperAlgebra, Verdict, check_supercommutative,
                       is_derivation, is_homomorphism)


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
    # Z delta(Z) = Z: products f * delta(g) over basis f, g must span Z.
    t = z.tensor()
    dg = d.delta.matrix                       # columns delta(e_g)
    prods = amod(z.field, np.einsum("ifr,fg->gir", t, dg, optimize=True))
    span = Subspace(z.field, z.n, prods.reshape(-1, z.n))
    if span.dim != z.n:
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
    products = {}
    for i in range(p):
        for j in range(p):
            if i + j < p:
                products[(i, j)] = [(i + j, 1)]
    z = SuperAlgebra(field, p, 0, labels, products, unit_index=0)
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
    products = {(0, i): [(i, 1)] for i in range(4)}
    for i in range(1, 4):
        products[(i, 0)] = [(i, 1)]
        products[(i, i)] = [(0, field.reduce(_QUAD_SQUARES[i - 1]))]
    return SuperAlgebra(field, 4, 0, labels, products, unit_index=0)


def _zmul(z: SuperAlgebra, i: int, j: int):
    """Structure constants of e_i e_j in Z as a list of (k, c)."""
    return z.products.get((i, j), [])


def _vecmul(z: SuperAlgebra, vec, j: int):
    """Coordinates of (vec) * e_j in Z."""
    t = z.tensor()
    return amod(z.field, vec @ t[:, j, :])


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
    f = z.field
    dm = dalg.delta.matrix
    labels = list(z.labels) + [f"{lb}*x" for lb in z.labels]
    products: dict = {}
    for (i, j), terms in z.products.items():
        products[(i, j)] = list(terms)                      # f g
        products[(i, dz + j)] = [(dz + k, c) for k, c in terms]  # f (gx)
        products[(dz + j, i)] = [(dz + k, c) for k, c in terms]  # (gx) f
    for i in range(dz):
        for j in range(dz):
            # (fx)(gx) = delta(f) g - f delta(g)
            vec = _vecmul(z, dm[:, i], j) - _vecmul(z, dm[:, j], i)
            vec = amod(f, vec)
            terms = [(k, vec[k]) for k in np.nonzero(vec)[0]]
            if terms:
                products[(dz + i, dz + j)] = terms
    alg = SuperAlgebra(f, dz, dz, labels, products, unit_index=z.unit_index)
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
    z = dalg.z
    f = z.field
    dz = z.n
    if basis == "v":
        f.sqrt_minus_one()      # raises when unavailable
    squares = (1, 1, -1) if basis == "w" else (-1, -1, -1)
    cross = _CROSS_W if basis == "w" else _CROSS_V
    cross_sign = -1 if basis == "w" else 1
    even_names = ["", "w1", "w2", "w3"] if basis == "w" else \
        ["", "v1", "v2", "v3"]
    odd_names = ["x", "x1", "x2", "x3"] if basis == "w" else \
        ["y", "y1", "y2", "y3"]

    def ei(fam, k):
        return fam * dz + k

    def oi(fam, k):
        return 4 * dz + fam * dz + k

    labels = []
    for fam in range(4):
        for k in range(dz):
            zl = z.labels[k]
            labels.append(zl if fam == 0 else f"{zl}*{even_names[fam]}")
    for fam in range(4):
        for k in range(dz):
            labels.append(f"{z.labels[k]}*{odd_names[fam]}")

    dm = dalg.delta.matrix
    products: dict = {}

    def put(i, j, terms):
        terms = [(k, f.reduce(c)) for k, c in terms if f.reduce(c) != 0]
        if terms:
            products[(i, j)] = terms

    def vec_terms(vec, to_index):
        vec = amod(f, vec)
        return [(to_index(k), vec[k]) for k in np.nonzero(vec)[0]]

    for i in range(dz):
        for j in range(dz):
            fg = z.tensor()[i, j]                   # f g
            dfg = _vecmul(z, dm[:, i], j)           # delta(f) g
            # even * even
            put(ei(0, i), ei(0, j), vec_terms(fg, lambda k: ei(0, k)))
            for a in range(1, 4):
                put(ei(0, i), ei(a, j), vec_terms(fg, lambda k, a=a: ei(a, k)))
                put(ei(a, i), ei(0, j), vec_terms(fg, lambda k, a=a: ei(a, k)))
                put(ei(a, i), ei(a, j),
                    vec_terms(squares[a - 1] * fg, lambda k: ei(0, k)))
            # even * odd and odd * even (even and odd parts commute)
            for b in range(4):
                put(ei(0, i), oi(b, j), vec_terms(fg, lambda k, b=b: oi(b, k)))
                put(oi(b, j), ei(0, i), vec_terms(fg, lambda k, b=b: oi(b, k)))
            for a in range(1, 4):
                # (f w_a)(g x) = (delta(f) g) x_a
                put(ei(a, i), oi(0, j), vec_terms(dfg, lambda k, a=a: oi(a, k)))
                put(oi(0, j), ei(a, i), vec_terms(dfg, lambda k, a=a: oi(a, k)))
                for b in range(1, 4):
                    if a == b:
                        continue
                    sgn, c = cross[(a, b)]
                    coeff = cross_sign * sgn
                    put(ei(a, i), oi(b, j),
                        vec_terms(coeff * fg, lambda k, c=c: oi(c, k)))
                    put(oi(b, j), ei(a, i),
                        vec_terms(coeff * fg, lambda k, c=c: oi(c, k)))
            # odd * odd
            gdf = _vecmul(z, dm[:, j], i)           # f delta(g), as g df
            put(oi(0, i), oi(0, j),
                vec_terms(dfg - gdf, lambda k: ei(0, k)))
            for b in range(1, 4):
                put(oi(0, i), oi(b, j), vec_terms(-fg, lambda k, b=b: ei(b, k)))
                put(oi(b, i), oi(0, j), vec_terms(fg, lambda k, b=b: ei(b, k)))

    fine = []
    for fam in range(4):
        fine += [_FINE[fam]] * dz
    for fam in range(4):
        fine += [_FINE[fam]] * dz

    alg = SuperAlgebra(f, 4 * dz, 4 * dz, labels, products,
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
    h = is_homomorphism(psi)
    if not h:
        raise ValueError(f"basis change is not a homomorphism: {h.witness}")
    if rank(f, psi.matrix) != n:
        raise ValueError("basis change is not bijective")
    return psi


def map_inverse(fmap: LinearMap) -> LinearMap:
    """Inverse of a bijective LinearMap."""
    return LinearMap(fmap.target, fmap.source, fmap.parity,
                     inverse(fmap.field, fmap.matrix), check=False)


def odd_part_squares_to_even(a: SuperAlgebra) -> Verdict:
    """Does the span of products of odd basis vectors equal the even
    part?  (Stated for the big superalgebra: J_1 J_1 = J_0.)"""
    t = a.tensor()
    n0 = a.dim_even
    odd = t[n0:, n0:, :]
    span = Subspace(a.field, a.n, odd.reshape(-1, a.n))
    want = Subspace(a.field, a.n,
                    np.eye(a.n, dtype=a.field.dtype)[:n0])
    ok = span.equals(want)
    return Verdict(ok, None if ok else {"got_dim": span.dim,
                                        "want_dim": n0})


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
