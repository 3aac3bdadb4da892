"""Symmetry layer for the rank-8 superalgebra in its v-basis.

Three things live here: the order-24 group of signed family
permutations acting by automorphisms, the coordinate superalgebra
carried by one fine component of the derivation algebra, and the
transfer of derivations between the big algebra and its rank-2
subalgebra through that coordinate structure.

The last two hold maps as their nonzero entries: a bracket is one
named-pair join, a conjugate by a group element is a relabeling of the
entries, and a map is read in carrier coordinates through its
coordinates over the component and one change of basis.
"""

from dataclasses import dataclass

import numpy as np

from .constructions import ChengKac, KantorDouble
from .derivations import (DerivationSpace, combination_entries,
                          grade_derivations)
from .linalg import amod, asfield, inverse, mm, signed_permutation_inverse
from .superalg import (LinearMap, SuperAlgebra, _brackets, _entries,
                       inner_derivation_entries, is_automorphism,
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
    m = np.zeros((ck.alg.n, ck.alg.n), dtype=ck.alg.field.dtype)
    for images, family in ((even_images, ck.even_family),
                           (odd_images, ck.odd_family)):
        for fam, (sgn, tgt) in images.items():
            m[family(tgt), family(fam)] = sgn
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
    f, n = act.algebra.field, act.algebra.n
    g = act.phi.matrix
    s1 = act.tau.matrix
    s2 = mm(f, g, mm(f, s1, signed_permutation_inverse(f, g)))
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
    f = g.field
    return LinearMap(d.source, d.target, d.parity, mm(
        f, g.matrix, mm(f, d.matrix, inverse(f, g.matrix))))


def _relabeling(field, g):
    """(to, sign) with g e_j = sign[j] e_to[j], for g a signed
    permutation matrix or, along the leading axes, a stack of them.
    Raises ValueError (signed_permutation_inverse) for any other g."""
    gt = signed_permutation_inverse(field, g)   # gt[j, to[j]] = sign[j]
    to = np.argmax(gt != 0, axis=-1)
    sign = np.take_along_axis(gt, to[..., None], axis=-1)[..., 0]
    return to, np.where(sign == 1, 1.0, -1.0)


def _conjugate_entries(field, g, entries):
    """The nonzero entries (s, r, c, value) of g M_s g^-1, in (s, r, c)
    order, for maps M_s given by their nonzero entries and g a signed
    permutation matrix, an element of the S4 action: the entry M_s[r, c]
    moves to (to[r], to[c]) times sign[r] sign[c] (_relabeling)."""
    to, sign = _relabeling(field, g)
    s, r, c, v = entries
    n = len(to)
    order = np.argsort((s * n + to[r]) * n + to[c], kind="stable")
    s, r, c, v = s[order], r[order], c[order], v[order]
    return s, to[r], to[c], amod(field, sign[r] * sign[c] * v)


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
    symmetry action.  entries are those (q, r, c, value) of the carrier
    maps, even ones first; change takes coordinates over the component
    to coordinates over the carrier."""

    component: DerivationSpace
    entries: tuple
    alg: SuperAlgebra
    involution: np.ndarray
    unital: bool
    change: np.ndarray

    def as_map(self, coords) -> LinearMap:
        """The derivation a coordinate vector stands for."""
        a = self.component.algebra
        c = asfield(a.field, coords)
        nz = np.flatnonzero(c)
        m = np.zeros((a.n, a.n), dtype=a.field.dtype)
        keys, vals = combination_entries(
            a.field, a.n, (np.zeros_like(nz), nz, c[nz]), self.entries)
        m.T.flat[keys] = vals                   # keys are column-major
        return LinearMap(a, a, self.alg.parities[nz[0]] if nz.size else 0,
                         m, check=False)


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
    a, f, dz = ck.alg, ck.alg.field, ck.dz
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
    change = inverse(f, basis)
    q, cell = np.divmod(keys, a.n * a.n)
    carrier = (q, cell % a.n, cell // a.n, vals)
    pars = np.repeat([0, 1], dz)

    tp = mm(f, act.tau.matrix, act.phi.matrix)
    keys, vals = _brackets(
        f, a.n, (pars, _conjugate_entries(f, tp, carrier)),
        (pars, _conjugate_entries(f, mm(f, tp, act.phi.matrix), carrier)))
    # prods[i, j] holds the coordinates of the product of carriers i, j
    prods = _carrier_coords(comp, change, keys, amod(f, -vals),
                            (2 * dz) ** 2).reshape(2 * dz, 2 * dz, 2 * dz)
    s, r, c, v = _conjugate_entries(f, act.tau.matrix, carrier)
    invo = _carrier_coords(comp, change, (s * a.n + c) * a.n + r,
                           amod(f, -v), 2 * dz).T

    eye = np.eye(2 * dz)
    unital = np.array_equal(prods[0], eye) and np.array_equal(prods[:, 0], eye)
    labels = [f"D(v1,t^{k} v2)" for k in range(dz)] + \
             [f"D(v3,t^{k} y)" for k in range(dz)]
    nz = np.nonzero(prods)
    alg = SuperAlgebra(f, dz, dz, labels, (*nz, prods[nz]),
                       unit_index=0 if unital else None)
    return CoordinateAlgebra(comp, carrier, alg, invo, unital, change)


def phi_iso(kd: KantorDouble, coord: CoordinateAlgebra) -> LinearMap:
    """The isomorphism from the rank-2 double onto the coordinate
    algebra: f + g y  ->  D(v1, f v2) + sqrt(-1) D(v3, g y).

    Verified to be a homomorphism; raises with the first violating pair
    otherwise.  Bijectivity and the unit are left to is_automorphism
    (the coordinate_constants_match check)."""
    k_alg, dz = kd.alg, kd.dz
    if coord.alg.n != 2 * dz:
        raise ValueError("dimension mismatch with the coordinate algebra")
    out = LinearMap(k_alg, coord.alg, 0, np.diag(
        np.repeat([1, k_alg.field.sqrt_minus_one()], dz)))
    v = is_homomorphism(out)
    if not v:
        raise ValueError(f"transport map is not a homomorphism: {v.witness}")
    return out


class CoordinateTransfer:
    """The bracket-transfer taking derivations of the big algebra in
    the [0,0] fine component to derivations of the rank-2 double.

    A derivation d goes to the map z -> phi^-1([d, phi(z)]): one
    commutator join of a stack of maps d with the images phi(e_j), read
    in carrier coordinates.  images holds the nonzero entries (j, r, c,
    value) of the phi(e_j), maps of the big algebra."""

    def __init__(self, ck: ChengKac, kd: KantorDouble,
                 coord: CoordinateAlgebra, phi: LinearMap):
        self.ck, self.kd, self.coord, self.phi = ck, kd, coord, phi
        f = ck.alg.field
        self._phi_inv = inverse(f, phi.matrix)
        n, (c, j) = ck.alg.n, np.nonzero(phi.matrix)
        keys, vals = combination_entries(f, n, (j, c, phi.matrix[c, j]),
                                         coord.entries)
        j, cell = np.divmod(keys, n * n)
        self.images = (j, cell % n, cell // n, vals)

    def apply(self, parities, entries):
        """The transfers, maps of the rank-2 double, of a stack of maps
        of the big algebra (see superalg._chain), as a stack of the same
        parities: one commutator join of the maps with the images, read
        in carrier coordinates at once.  Raises once a map escapes the
        carrier span."""
        k_alg = self.kd.alg
        f, nk, h = k_alg.field, k_alg.n, len(parities)
        keys, vals = _brackets(f, self.ck.alg.n, (parities, entries),
                               (k_alg.parities, self.images))
        co = _carrier_coords(self.coord.component, self.coord.change, keys,
                             vals, h * nk).reshape(h, nk, nk)
        return np.asarray(parities), _entries(
            f, mm(f, self._phi_inv, co.transpose(0, 2, 1)))


def phi_star(ck: ChengKac, kd: KantorDouble, coord: CoordinateAlgebra,
             phi: LinearMap) -> CoordinateTransfer:
    """Package the derivation transfer induced by the coordinate
    isomorphism."""
    return CoordinateTransfer(ck, kd, coord, phi)
