"""Symmetry layer for the rank-8 superalgebra in its v-basis.

Three things live here: the order-24 group of signed family
permutations acting by automorphisms, the coordinate superalgebra
carried by one fine component of the derivation algebra, and the
transfer of derivations between the big algebra and its rank-2
subalgebra through that coordinate structure.

The last two run on the sparse map engine of the derivation layer: all
their brackets come from commutator joins (_commutator_entries), and a
map is read in carrier coordinates from its coordinates over the
canonical basis of the component (DerivationSpace.coordinates) and one
change of basis.
"""

from dataclasses import dataclass

import numpy as np

from .constructions import ChengKac, KantorDouble
from .derivations import DerivationSpace, grade_derivations
from .linalg import amod, asfield, inverse, mm
from .superalg import (LinearMap, SuperAlgebra, _commutator_entries,
                       _entries, inner_derivation_entries, is_automorphism,
                       is_homomorphism)


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
    s1 = act.tau.matrix
    s2 = _conjugates(f, act.phi.matrix, act.tau.matrix[None])[0]
    s3 = mm(f, act.tau1.matrix, act.tau.matrix)

    def is_identity_power(m, e):
        out = np.eye(n, dtype=f.dtype)
        for _ in range(e):
            out = mm(f, out, m)
        return np.array_equal(out, np.eye(n))

    return {
        "s1_squared": is_identity_power(s1, 2),
        "s2_squared": is_identity_power(s2, 2),
        "s3_squared": is_identity_power(s3, 2),
        "s1s2_cubed": is_identity_power(mm(f, s1, s2), 3),
        "s2s3_cubed": is_identity_power(mm(f, s2, s3), 3),
        "s1s3_squared": is_identity_power(mm(f, s1, s3), 2),
        "generated_order": len(group_closure(f, [s1, s2, s3])),
    }


def conjugate_der(g: LinearMap, d: LinearMap) -> LinearMap:
    """The conjugate g d g^-1 of a derivation by an automorphism.

    Raises once the conjugating map turns out to be singular."""
    return LinearMap(d.source, d.target, d.parity,
                     _conjugates(g.field, g.matrix, d.matrix[None])[0])


def _conjugates(field, g, stack):
    """The matrices g M g^-1 of a stack of matrices M."""
    return mm(field, g, mm(field, stack, inverse(field, g)))


def _cross_commutators(field, n: int, parities, h: int, entries):
    """The entries of [M_s, M_t], s < h <= t, of k n x n maps with the
    given parities and nonzero entries (s, r, c, M_s[r, c]), keyed
    (s (k - h) + t - h) n^2 + cell, the cell column-major: one join of
    all the entries (_commutator_entries), of which the pairs across h
    are kept."""
    k = len(parities)
    keys, vals = _commutator_entries(field, n, np.asarray(parities),
                                     *entries)
    st, cell = np.divmod(keys, n * n)
    s, t = np.divmod(st, k)
    keep = (s < h) & (t >= h)
    return (s[keep] * (k - h) + t[keep] - h) * n * n + cell[keep], vals[keep]


def _carrier_coords(comp: DerivationSpace, change, keys, vals, count: int):
    """The carrier coordinates of count maps q, given by their nonzero
    entries keyed q n^2 + cell (column-major), as the rows of a (count,
    2 dz) array: their coordinates over comp times the change of basis.
    Raises once a map escapes the carrier span."""
    co = comp.coordinates(keys, vals)
    if co is None:
        raise ValueError("map escapes the carrier span")
    x = np.zeros((count, comp.dim), dtype=change.dtype)
    x[co[0], co[1]] = co[2]
    return mm(comp.algebra.field, x, change)


@dataclass
class CoordinateAlgebra:
    """Product structure induced on the [1,1] fine component of the
    derivation algebra by twisting the supercommutator with the
    symmetry action.

    change takes coordinates over the canonical basis of the component
    to coordinates over the carrier basis, even maps first."""

    component: DerivationSpace
    carrier_even: list
    carrier_odd: list
    alg: SuperAlgebra
    involution: np.ndarray
    unital: bool
    change: np.ndarray

    def carrier(self):
        return self.carrier_even + self.carrier_odd

    def as_map(self, coords) -> LinearMap:
        """The derivation a coordinate vector stands for."""
        a = self.component.algebra
        c = asfield(a.field, coords)
        flat = np.stack([lm.flatten() for lm in self.carrier()])
        nz = np.flatnonzero(c)
        return LinearMap.from_flat(
            a, a, self.carrier()[nz[0]].parity if nz.size else 0,
            mm(a.field, c, flat), check=False)


def coordinate_algebra(ck: ChengKac, der_j: DerivationSpace,
                       act: S4Action) -> CoordinateAlgebra:
    """The superalgebra structure on the [1,1] component of der_j.

    The carrier basis is the named one: inner derivations moving the
    first marked family into the second (even part) and the third into
    the plain odd family (odd part).  Their coordinates over the
    component must exist and invert, so they are a basis of it.  The
    product is X * Y = -tau([phi X phi^-1, phi^2 Y phi^-2]) and the
    involution is X -> -tau(X).  Conjugation by tau respects brackets,
    so all products come from one commutator join of the carriers
    conjugated by tau phi with those conjugated by tau phi^2.  A product
    landing outside the carrier span raises.
    """
    a = ck.alg
    f = a.field
    dz = ck.dz
    comp = grade_derivations(der_j).component((1, 1))
    if comp.dims != (dz, dz):
        raise ValueError(f"the [1,1] component has dims {comp.dims}")

    pairs = [(ck.even_index(1, 0), ck.even_index(2, k)) for k in range(dz)] \
        + [(ck.even_index(3, 0), ck.odd_index(0, k)) for k in range(dz)]
    keys, vals = inner_derivation_entries(a, pairs)
    co = comp.coordinates(keys, vals)
    if co is None:
        raise ValueError("carrier maps escape the [1,1] component")
    basis = np.zeros((2 * dz, 2 * dz), dtype=f.dtype)
    basis[co[0], co[1]] = co[2]
    flat = np.zeros((2 * dz, a.n * a.n), dtype=f.dtype)
    flat.flat[keys] = vals
    pars = [0] * dz + [1] * dz
    maps = [LinearMap.from_flat(a, a, par, r, check=False)
            for par, r in zip(pars, flat)]
    mats = np.stack([m.matrix for m in maps])
    change = inverse(f, basis)

    tp = mm(f, act.tau.matrix, act.phi.matrix)
    keys, vals = _cross_commutators(f, a.n, pars + pars, 2 * dz, _entries(
        f, np.concatenate([_conjugates(f, tp, mats),
                           _conjugates(f, mm(f, tp, act.phi.matrix), mats)])))
    # prods[i, j] holds the coordinates of the product of carriers i, j
    prods = _carrier_coords(comp, change, keys, amod(f, -vals),
                            (2 * dz) ** 2).reshape(2 * dz, 2 * dz, 2 * dz)
    s, r, c, v = _entries(f, _conjugates(f, act.tau.matrix, mats))
    invo = _carrier_coords(comp, change, (s * a.n + c) * a.n + r,
                           amod(f, -v), 2 * dz).T

    eye = np.eye(2 * dz)
    unital = np.array_equal(prods[0], eye) and np.array_equal(prods[:, 0], eye)
    labels = [f"D(v1,t^{k} v2)" for k in range(dz)] + \
             [f"D(v3,t^{k} y)" for k in range(dz)]
    nz = np.nonzero(prods)
    alg = SuperAlgebra(f, dz, dz, labels, (*nz, prods[nz]),
                       unit_index=0 if unital else None)
    return CoordinateAlgebra(comp, maps[:dz], maps[dz:], alg, invo, unital,
                             change)


def phi_iso(kd: KantorDouble, coord: CoordinateAlgebra) -> LinearMap:
    """The isomorphism from the rank-2 double onto the coordinate
    algebra: f + g y  ->  D(v1, f v2) + sqrt(-1) D(v3, g y).

    Verified to be a homomorphism; raises with the first violating pair
    otherwise.  Bijectivity and the unit are left to is_automorphism
    (the coordinate_constants_match check)."""
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

    A derivation d goes to the map z -> phi^-1([d, phi(z)]): one
    commutator join of a list of maps d with the images phi(e_j), read
    in carrier coordinates.  images[j] is the matrix of phi(e_j) as a
    map of the big algebra."""

    def __init__(self, ck: ChengKac, kd: KantorDouble,
                 coord: CoordinateAlgebra, phi: LinearMap):
        self.ck = ck
        self.kd = kd
        self.coord = coord
        self.phi = phi
        self._phi_inv = inverse(ck.alg.field, phi.matrix)
        self.images = np.stack([coord.as_map(col).matrix
                                for col in phi.matrix.T])

    def apply(self, maps) -> list:
        """The transferred derivations of the rank-2 double, one per map
        of the list: one commutator join of all the maps with the
        images, read in carrier coordinates at once."""
        k_alg = self.kd.alg
        f, n, nk, h = k_alg.field, self.ck.alg.n, k_alg.n, len(maps)
        pars = [d.parity for d in maps]
        keys, vals = _cross_commutators(
            f, n, np.r_[pars, k_alg.parities], h, _entries(f, np.concatenate(
                [np.reshape([d.matrix for d in maps], (-1, n, n)),
                 self.images])))
        co = _carrier_coords(self.coord.component, self.coord.change, keys,
                             vals, h * nk).reshape(h, nk, nk)
        return [LinearMap(k_alg, k_alg, par, m) for par, m in
                zip(pars, mm(f, self._phi_inv, co.transpose(0, 2, 1)))]


def phi_star(ck: ChengKac, kd: KantorDouble, coord: CoordinateAlgebra,
             phi: LinearMap) -> CoordinateTransfer:
    """Package the derivation transfer induced by the coordinate
    isomorphism."""
    return CoordinateTransfer(ck, kd, coord, phi)
