"""Symmetry layer for the rank-8 superalgebra in its v-basis.

Three things live here: the order-24 group of signed family
permutations acting by automorphisms, the coordinate superalgebra
carried by one fine component of the derivation algebra, and the
transfer of derivations between the big algebra and its rank-2
subalgebra through that coordinate structure.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constructions import ChengKac, KantorDouble
from .derivations import DerivationSpace, grade_derivations, span_of_maps
from .linalg import amod, asfield, inverse, iszero, rref
from .superalg import (LinearMap, SuperAlgebra, inner_derivation,
                       is_automorphism, is_homomorphism, super_commutator)


@dataclass
class S4Action:
    """Generating automorphisms plus the closed list of all 24 maps."""

    algebra: SuperAlgebra
    tau1: LinearMap
    tau2: LinearMap
    phi: LinearMap
    tau: LinearMap
    elements: list


def _family_matrix(ck: ChengKac, even_images, odd_images):
    """Matrix of a map permuting basis families with signs, acting as
    the identity on the polynomial coefficients."""
    n = ck.alg.n
    dz = ck.dz
    m = np.zeros((n, n), dtype=ck.alg.field.dtype)
    for fam, (sgn, tgt) in even_images.items():
        for k in range(dz):
            m[ck.even_index(tgt, k), ck.even_index(fam, k)] = sgn
    for fam, (sgn, tgt) in odd_images.items():
        for k in range(dz):
            m[ck.odd_index(tgt, k), ck.odd_index(fam, k)] = sgn
    return m


def group_closure(field, mats, bound=30):
    """All distinct products generated by the given invertible matrices.

    Breadth-first multiplication with exact dedup; raises once more
    than `bound` distinct elements show up, as a guard against a broken
    generator sneaking in an infinite group.
    """
    mats = [asfield(field, g) for g in mats]
    elems = {}
    queue = []
    for g in mats:
        k = g.tobytes()
        if k not in elems:
            elems[k] = g
            queue.append(g)
    while queue:
        h = queue.pop(0)
        for g in mats:
            prod = amod(field, h @ g)
            k = prod.tobytes()
            if k not in elems:
                elems[k] = prod
                queue.append(prod)
                if len(elems) > bound:
                    raise ValueError(
                        f"closure exceeded {bound} elements; generators "
                        "do not span a small group")
    return list(elems.values())


def build_s4(ck: ChengKac) -> S4Action:
    """The four standard automorphisms of the v-basis algebra and their
    closure under composition.

    tau1 and tau2 are the diagonal sign maps attached to the fine
    grading; phi cycles the three marked families; tau swaps the first
    two with signs.  Each generator is verified to be an automorphism
    and the closure must have exactly 24 elements.
    """
    if ck.basis != "v":
        raise ValueError("the symmetry action needs the v-basis")
    a = ck.alg
    f = a.field
    fine = a.fine_label
    d1 = np.diag([(-1.0) ** (g[0] + g[1]) for g in fine])
    d2 = np.diag([(-1.0) ** g[1] for g in fine])
    cycle = {0: (1, 0), 1: (1, 2), 2: (1, 3), 3: (1, 1)}
    swap = {0: (1, 0), 1: (-1, 2), 2: (-1, 1), 3: (-1, 3)}
    tau1 = LinearMap(a, a, 0, d1)
    tau2 = LinearMap(a, a, 0, d2)
    phi = LinearMap(a, a, 0, _family_matrix(ck, cycle, cycle))
    tau = LinearMap(a, a, 0, _family_matrix(ck, swap, swap))
    for name, g in (("tau1", tau1), ("tau2", tau2),
                    ("phi", phi), ("tau", tau)):
        v = is_automorphism(g)
        if not v:
            raise ValueError(f"{name} failed the automorphism check: "
                             f"{v.witness}")
    mats = [tau1.matrix, tau2.matrix, phi.matrix, tau.matrix]
    elements = [LinearMap(a, a, 0, m, check=False)
                for m in group_closure(f, mats)]
    if len(elements) != 24:
        raise ValueError(f"closure has {len(elements)} elements, not 24")
    return S4Action(a, tau1, tau2, phi, tau, elements)


def coxeter_witness(act: S4Action) -> dict:
    """Relations of the three transposition generators sitting inside
    the action: s1 = tau, s2 = phi tau phi^-1, s3 = tau1 tau.

    Returns the involution, braid and commutation relation outcomes
    together with the order of the subgroup the three generate.  For
    the symmetric group on four letters all five relations hold and
    the order is 24.
    """
    f = act.algebra.field
    n = act.algebra.n
    ph = act.phi.matrix
    phinv = inverse(f, ph)
    s1 = act.tau.matrix
    s2 = amod(f, ph @ act.tau.matrix @ phinv)
    s3 = amod(f, act.tau1.matrix @ act.tau.matrix)

    def power(m, e):
        out = np.eye(n, dtype=f.dtype)
        for _ in range(e):
            out = amod(f, out @ m)
        return out

    def is_identity(m):
        return iszero(amod(f, m - np.eye(n)))

    return {
        "s1_squared": is_identity(power(s1, 2)),
        "s2_squared": is_identity(power(s2, 2)),
        "s3_squared": is_identity(power(s3, 2)),
        "s1s2_cubed": is_identity(power(amod(f, s1 @ s2), 3)),
        "s2s3_cubed": is_identity(power(amod(f, s2 @ s3), 3)),
        "s1s3_squared": is_identity(power(amod(f, s1 @ s3), 2)),
        "generated_order": len(group_closure(f, [s1, s2, s3])),
    }


def conjugate_der(g: LinearMap, d: LinearMap) -> LinearMap:
    """The conjugate g d g^-1 of a derivation by an automorphism.

    Raises once the conjugating map turns out to be singular."""
    f = g.field
    ginv = inverse(f, g.matrix)
    m = amod(f, g.matrix @ amod(f, d.matrix @ ginv))
    return LinearMap(d.source, d.target, d.parity, m)


@dataclass
class CoordinateAlgebra:
    """Product structure induced on the [1,1] fine component of the
    derivation algebra by twisting the supercommutator with the
    symmetry action.

    coords maps a flattened matrix to its coordinates over the carrier
    basis, even maps first, and raises once the matrix escapes the
    carrier span."""

    component: DerivationSpace
    carrier_even: list
    carrier_odd: list
    alg: SuperAlgebra
    involution: np.ndarray
    unital: bool
    coords: Callable

    def carrier(self):
        return self.carrier_even + self.carrier_odd

    def as_map(self, coords) -> LinearMap:
        """The derivation a coordinate vector stands for."""
        a = self.component.algebra
        maps = self.carrier()
        m = np.zeros((a.n, a.n), dtype=a.field.dtype)
        par = None
        for c, lm in zip(asfield(a.field, coords), maps):
            if c != 0:
                m = m + c * lm.matrix
                par = lm.parity if par is None else par
        return LinearMap(a, a, par or 0, amod(a.field, m), check=False)


def coordinate_algebra(ck: ChengKac, der_j: DerivationSpace,
                       act: S4Action) -> CoordinateAlgebra:
    """The superalgebra structure on the [1,1] component of der_j.

    The carrier basis is the named one: inner derivations moving the
    first marked family into the second (even part) and the third into
    the plain odd family (odd part).  The product is
    X * Y = -tau([phi X phi^-1, phi^2 Y phi^-2]) and the involution is
    X -> -tau(X), both computed by conjugation and re-expressed in the
    carrier basis.  A product landing outside the carrier span raises.
    """
    a = ck.alg
    f = a.field
    dz = ck.dz
    comp = grade_derivations(der_j).component((1, 1))

    def evec(fam, k):
        return a.basis_vector(ck.even_index(fam, k))

    def ovec(fam, k):
        return a.basis_vector(ck.odd_index(fam, k))

    carrier_even = [inner_derivation(a, evec(1, 0), evec(2, k))
                    for k in range(dz)]
    carrier_odd = [inner_derivation(a, evec(3, 0), ovec(0, k))
                   for k in range(dz)]
    if not span_of_maps(a, carrier_even).equals(comp.subspace(0)):
        raise ValueError("even carrier does not span the even component")
    if not span_of_maps(a, carrier_odd).equals(comp.subspace(1)):
        raise ValueError("odd carrier does not span the odd component")

    maps = carrier_even + carrier_odd
    pars = [0] * dz + [1] * dz
    flat = np.stack([m.flatten() for m in maps])
    _, rk, piv = rref(f, flat)
    if rk != 2 * dz:
        raise ValueError("carrier maps are linearly dependent")
    piv = np.asarray(piv, dtype=np.intp)
    minv = inverse(f, flat[:, piv].T)

    def coords(x_flat):
        c = amod(f, minv @ x_flat[piv])
        if not iszero(amod(f, c @ flat - x_flat)):
            raise ValueError("map escapes the carrier span")
        return c

    fm = act.phi.matrix
    fminv = inverse(f, fm)
    f2 = amod(f, fm @ fm)
    f2inv = amod(f, fminv @ fminv)
    tm = act.tau.matrix
    tminv = inverse(f, tm)

    def conj(g, ginv, m):
        return amod(f, g @ amod(f, m @ ginv))

    left = [conj(fm, fminv, m.matrix) for m in maps]
    right = [conj(f2, f2inv, m.matrix) for m in maps]

    products = {}
    for i in range(2 * dz):
        for j in range(2 * dz):
            li = LinearMap(a, a, pars[i], left[i], check=False)
            rj = LinearMap(a, a, pars[j], right[j], check=False)
            br = super_commutator(li, rj)
            prod = amod(f, -conj(tm, tminv, br.matrix))
            c = coords(prod.flatten(order="F"))
            terms = [(k, c[k]) for k in range(2 * dz) if c[k] != 0]
            if terms:
                products[(i, j)] = terms

    invo = np.zeros((2 * dz, 2 * dz), dtype=f.dtype)
    for i, m in enumerate(maps):
        invo[:, i] = coords(amod(f, -conj(tm, tminv, m.matrix))
                            .flatten(order="F"))

    unital = all(
        products.get((0, j)) == [(j, 1)] and products.get((j, 0)) == [(j, 1)]
        for j in range(2 * dz))
    labels = [f"D(v1,t^{k} v2)" for k in range(dz)] + \
             [f"D(v3,t^{k} y)" for k in range(dz)]
    alg = SuperAlgebra(f, dz, dz, labels, products,
                       unit_index=0 if unital else None)
    return CoordinateAlgebra(comp, carrier_even, carrier_odd, alg,
                             invo, unital, coords)


def phi_iso(kd: KantorDouble, coord: CoordinateAlgebra) -> LinearMap:
    """The isomorphism from the rank-2 double onto the coordinate
    algebra: f + g y  ->  D(v1, f v2) + sqrt(-1) D(v3, g y).

    Verified to be a bijective homomorphism; raises with the first
    violating pair otherwise."""
    k_alg = kd.alg
    f = k_alg.field
    i = f.sqrt_minus_one()
    dz = kd.dz
    if coord.alg.n != 2 * dz:
        raise ValueError("dimension mismatch with the coordinate algebra")
    m = np.zeros((2 * dz, 2 * dz), dtype=f.dtype)
    for k in range(dz):
        m[k, k] = 1
        m[dz + k, dz + k] = i
    out = LinearMap(k_alg, coord.alg, 0, m)
    v = is_homomorphism(out)
    if not v:
        raise ValueError(f"transport map is not a homomorphism: {v.witness}")
    return out


class CoordinateTransfer:
    """The bracket-transfer taking derivations of the big algebra in
    the [0,0] fine component to derivations of the rank-2 double.

    A derivation d goes to the map z -> phi^-1([d, phi(z)]), computed
    through the coordinate carrier."""

    def __init__(self, ck: ChengKac, kd: KantorDouble,
                 coord: CoordinateAlgebra, phi: LinearMap):
        self.ck = ck
        self.kd = kd
        self.coord = coord
        self.phi = phi
        f = ck.alg.field
        self.field = f
        self._phi_inv = inverse(f, phi.matrix)
        # images of the double's basis under phi, as actual derivations
        self._images = [coord.as_map(phi.matrix[:, j])
                        for j in range(kd.alg.n)]

    def apply(self, d: LinearMap) -> LinearMap:
        """The transferred derivation of the rank-2 double."""
        f = self.field
        n_k = self.kd.alg.n
        out = np.zeros((n_k, n_k), dtype=f.dtype)
        for j in range(n_k):
            br = super_commutator(d, self._images[j])
            c = self.coord.coords(br.flatten())
            out[:, j] = self._phi_inv @ c
        return LinearMap(self.kd.alg, self.kd.alg, d.parity, amod(f, out))

    def image_space(self, source: DerivationSpace,
                    validate: bool = True) -> DerivationSpace:
        """The transferred span of a derivation space."""
        ev = [self.apply(d) for d in source.even_basis]
        od = [self.apply(d) for d in source.odd_basis]
        return DerivationSpace(self.kd.alg, ev, od, validate=validate)


def phi_star(ck: ChengKac, kd: KantorDouble, coord: CoordinateAlgebra,
             phi: LinearMap) -> CoordinateTransfer:
    """Package the derivation transfer induced by the coordinate
    isomorphism."""
    return CoordinateTransfer(ck, kd, coord, phi)
