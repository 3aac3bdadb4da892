"""Lie superalgebra constructions over the Jordan layer.

Builds the bracket structure on three tensor copies of a Jordan
superalgebra against skew-symmetric 3 x 3 matrices plus a derivation
algebra, the 3-graded Tits-Kantor-Koecher superalgebra, the explicit
identification between the two through a split sl2 triple, and the
realization of the big derivation algebra as such a construction over
the Kantor double K.

Maps are their nonzero entries here: an inner block is checked against
a derivation space by its coordinates (DerivationSpace.coordinates, or
those the inner span kept when the space is the inner span),
the bridges are judged by is_isomorphism, and der_as_tkk builds its map
by joins on the entries of the bracket transfer.
"""

from dataclasses import dataclass

import numpy as np

from .constructions import ChengKac, KantorDouble
from .derivations import (DerivationSpace, combination_entries,
                          grade_derivations, inner_derivation_algebra)
from .linalg import amod, asfield, inverse, iszero, mm
from .superalg import (LinearMap, SuperAlgebra, Verdict, _chain,
                       inner_derivation_entries, is_isomorphism,
                       table_from_json)
from .symmetry import CoordinateTransfer, S4Action, _conjugate_entries


class LieSuperAlgebra(SuperAlgebra):
    """A superalgebra whose product is a super bracket, with an
    optional 3-grading tag (-1, 0, +1) per basis vector."""

    def __init__(self, field, dim_even, dim_odd, labels, table,
                 grading=None):
        super().__init__(field, dim_even, dim_odd, labels, table)
        self.grading = list(grading) if grading is not None else None

    def to_json(self) -> dict:
        obj = super().to_json()
        obj["brackets"] = obj.pop("products")
        del obj["unit"]
        del obj["fine_label"]
        obj["grading"] = self.grading
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "LieSuperAlgebra":
        from .field import FieldSpec
        f = FieldSpec.from_json(obj["field"])
        return cls(f, int(obj["dim_even"]), int(obj["dim_odd"]),
                   obj["labels"], table_from_json(f, obj["brackets"]),
                   obj.get("grading"))


def check_3grading(lie: LieSuperAlgebra) -> Verdict:
    """Brackets of tagged vectors must land in the summed tag, and be
    zero once the sum leaves {-1, 0, 1}.  The witness is the first
    offending pair in lexicographic order."""
    if lie.grading is None:
        return Verdict(False, {"reason": "no grading tags"})
    g = np.asarray(lie.grading)
    i, j, k, _ = lie.coo()
    s = g[i] + g[j]
    bad = np.flatnonzero((np.abs(s) > 1) | (g[k] != s))
    if not bad.size:
        return Verdict(True)
    t = bad[0]
    pair = (lie.labels[i[t]], lie.labels[j[t]])
    if abs(s[t]) > 1:
        return Verdict(False, {"pair": pair, "reason": "nonzero bracket "
                               "outside the grading range"})
    return Verdict(False, {"pair": pair, "lands_on": lie.labels[k[t]]})


_E_MATRICES = (
    np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]]),
    np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
    np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]]),
)


def so3(field) -> LieSuperAlgebra:
    """The skew-symmetric 3 x 3 matrices, with the cyclic basis whose
    brackets read off the next basis element.

    The returned algebra carries the concrete matrices and the trace
    form, which is -2 times the identity; both facts are rechecked on
    every call."""
    # [E_i, E_{i+1}] = E_{i+2} and [E_{i+1}, E_i] = -E_{i+2}, indices mod 3
    i, j, k = np.arange(3), np.arange(1, 4) % 3, np.arange(2, 5) % 3
    lie = LieSuperAlgebra(field, 3, 0, ["E1", "E2", "E3"],
                          (np.r_[i, j], np.r_[j, i], np.r_[k, k],
                           [1, 1, 1, -1, -1, -1]))
    lie.matrices = _E_MATRICES
    e = asfield(field, np.stack(_E_MATRICES))
    i, j, k, c = lie.coo()
    want = np.zeros((3, 3, 3, 3), dtype=field.dtype)
    want[i, j] = c[:, None, None] * e[k]
    prod = mm(field, e[:, None], e[None])         # prod[i, j] = E_i E_j
    if np.any(amod(field, prod - prod.transpose(1, 0, 2, 3) - want)):
        raise AssertionError("matrix model broke its own table")
    # tf[i, j] = trace(E_i E_j), the sum over (a, b) of E_i[a, b] E_j[b, a]
    tf = mm(field, e.reshape(3, 9), e.transpose(0, 2, 1).reshape(3, 9).T)
    if not np.array_equal(tf, asfield(field, -2 * np.eye(3))):
        raise AssertionError("trace form is not -2 times the identity")
    lie.trace_form = tf
    return lie


class ThreeCopyAlgebra(LieSuperAlgebra):
    """A Lie superalgebra on three copies of a superalgebra J plus a
    space of derivations of J, with index helpers.

    Basis order: the even part of each copy in turn, the even
    derivations, then the odd part of each copy in turn, the odd
    derivations."""

    def __init__(self, field, labels, table, grading, jalg, dspace):
        self._copy, self._der = self.layout(jalg, dspace)
        n0, n1 = jalg.dim_even, jalg.dim_odd
        m0, m1 = dspace.dims
        super().__init__(field, 3 * n0 + m0, 3 * n1 + m1, labels, table,
                         grading)
        self.jalg = jalg
        self.dspace = dspace

    def over(self, jalg, dspace):
        """The same table for jalg and dspace, the lifts of self.jalg and
        self.dspace to a larger field, through the normalizing
        constructor."""
        return type(self)(jalg.field, self.labels, self.coo(), self.grading,
                          jalg, dspace)

    @staticmethod
    def layout(jalg, dspace):
        """Global indices of copy i of basis vector a, as a (3, n)
        array, and of the derivations, even ones first."""
        n0, n1 = jalg.dim_even, jalg.dim_odd
        m0, m1 = dspace.dims
        dim_even = 3 * n0 + m0
        a = np.arange(jalg.n)
        copy = np.stack([np.where(a < n0, i * n0 + a,
                                  dim_even + i * n1 + a - n0)
                         for i in range(3)])
        u = np.arange(m0 + m1)
        der = np.where(u < m0, 3 * n0 + u, dim_even + 3 * n1 + u - m0)
        return copy, der

    def idx_copy(self, i: int, a: int) -> int:
        return int(self._copy[i, a])

    def idx_der(self, parity: int, k: int) -> int:
        return int(self._der[k + parity * self.dspace.dims[0]])


class TitsAlgebra(ThreeCopyAlgebra):
    """Bracket structure on (so3 tensor J) + d; copy i is E_{i+1}
    tensor J."""


class TkkAlgebra(ThreeCopyAlgebra):
    """3-graded bracket structure on J_+1 + (L_J + Inder J) + J_-1; the
    copies are the +1 copy, the -1 copy and the left multiplications."""

    @property
    def inder(self):
        return self.dspace


def _three_copy_lie(cls, jalg: SuperAlgebra, ds: DerivationSpace, copies,
                    dcoef, label_fmts, tags=None):
    """The bracket table on three copies of J plus the derivations ds.

    copies maps an ordered pair of copies (i, j) to (k, s), and dcoef
    maps it to c: then [(i, a), (j, b)] = s (k, ab) + c D(a, b).  A
    derivation acts on every copy, [d, (i, a)] = (i, d(a)), and the
    reverse order follows by super antisymmetry.  label_fmts and tags
    give each copy's label template and 3-grading tag, if any."""
    f, n, par = jalg.field, jalg.n, jalg.parities
    m0, m1 = ds.dims
    copy, der = cls.layout(jalg, ds)
    parts = []  # blocks of (i, j, k, c) table entries

    ji, jj, jk, jc = jalg.coo()
    for (i, j), (k, s) in copies.items():
        parts.append((copy[i, ji], copy[j, jj], copy[k, jk], s * jc))
    # D(a, b) in coordinates (ab, u, x) over ds, keyed ab = a n + b: kept
    # by the inner span that built ds, or from one join of every pair
    co = ds.inner_coordinates if ds.algebra is jalg else None
    if co is None:
        co = ds.coordinates(*inner_derivation_entries(jalg))
    if co is None:
        raise ValueError("inner derivation escapes the derivation space")
    for (i, j), c in dcoef.items():
        parts.append((copy[i, co[0] // n], copy[j, co[0] % n], der[co[1]],
                      c * co[2]))

    u, r, a, v = ds.entries()
    sgn = np.where((u >= m0) & (par[a] == 1), -1.0, 1.0)
    for i in range(3):
        parts.append((der[u], copy[i, a], copy[i, r], v))
        parts.append((copy[i, a], der[u], copy[i, r], -sgn * v))
    q, u, x = ds.bracket_coordinates()
    parts.append((der[q // ds.dim], der[q % ds.dim], der[u], x))

    labels = [""] * (3 * n + m0 + m1)
    for i, a in np.ndindex(3, n):
        labels[copy[i, a]] = label_fmts[i].format(jalg.labels[a])
    for u in range(m0 + m1):
        labels[der[u]] = f"d{u}"
    grading = None
    if tags is not None:
        g = np.zeros(len(labels), dtype=int)
        g[copy] = np.asarray(tags)[:, None]
        grading = g.tolist()
    table = [np.concatenate(x) for x in zip(*parts)]
    return cls(f, labels, table, grading, jalg, ds)


def tits_construction(jalg: SuperAlgebra, dspace: DerivationSpace,
                      inder: DerivationSpace | None = None) -> TitsAlgebra:
    """The Lie superalgebra on (so3 tensor J) + d.

    Brackets: two tensors bracket through the so3 bracket on the matrix
    side and the Jordan product on the other, plus half the trace form
    times the inner derivation; d acts on tensors componentwise.

    Preconditions checked: the inner derivations have coordinates over
    d and d is closed under the super commutator.  Either failure raises.
    """
    if inder is None:
        inder = inner_derivation_algebra(jalg)
    u, r, c, v = inder.entries()
    if dspace.coordinates((u * jalg.n + c) * jalg.n + r, v) is None:
        raise ValueError("derivation space misses inner derivations")
    # half the trace form of so3 is -1 on the diagonal
    i, j, k, c = (x.tolist() for x in so3(jalg.field).coo())
    copies = {(a, b): term for a, b, *term in zip(i, j, k, c)}
    dcoef = {(i, i): -1 for i in range(3)}
    return _three_copy_lie(TitsAlgebra, jalg, dspace, copies, dcoef,
                           ("E1*{}", "E2*{}", "E3*{}"))


# copies 0, 1, 2 are J_+1, J_-1 and L_J: [a_+, b_-] = L_ab + D(a, b),
# [a_-, b_+] = -L_ab + D(a, b), [L_a, b_+-] = +-(ab)_+-,
# [a_+-, L_b] = -+(ab)_+- and [L_a, L_b] = D(a, b)
_TKK_COPIES = {(0, 1): (2, 1), (1, 0): (2, -1), (2, 0): (0, 1),
               (2, 1): (1, -1), (0, 2): (0, -1), (1, 2): (1, 1)}
_TKK_DCOEF = {(0, 1): 1, (1, 0): 1, (2, 2): 1}


def tkk_3graded(jalg: SuperAlgebra,
                inder: DerivationSpace | None = None) -> TkkAlgebra:
    """The 3-graded Lie superalgebra on J_+1, J_-1 and the structure
    algebra L_J + Inder(J).

    The left-multiplication block and the inner-derivation block are
    kept separate, and checked to meet in zero: L_a(1) = e_a and the
    basis of inder is independent, so it suffices that every basis map
    of inder kills the unit."""
    if jalg.unit_index is None:
        raise ValueError("the construction needs a unital algebra")
    if inder is None:
        inder = inner_derivation_algebra(jalg)
    if np.any(inder.entries()[2] == jalg.unit_index):
        raise ValueError("multiplication operators overlap the inner "
                         "derivations")
    return _three_copy_lie(TkkAlgebra, jalg, inder, _TKK_COPIES, _TKK_DCOEF,
                           ("{}(+)", "{}(-)", "L[{}]"), tags=(1, -1, 0))


@dataclass
class ExplicitIso:
    """A verified isomorphism of Lie superalgebras."""

    map: LinearMap
    verified: Verdict
    detail: dict | None = None


def find_sl2_triple(field) -> dict:
    """A split sl2 triple (h, e, f) inside the cyclic 3-matrix basis.

    Candidates are tried in a fixed order and the first one passing
    [h,e] = 2e, [h,f] = -2f, [e,f] = h is returned, as coefficient
    vectors over the basis.  Requires a square root of -1."""
    i = field.sqrt_minus_one()
    br = so3(field).multiply
    candidates = [asfield(field, [[0, 0, 2 * i], [-i, 1, 0], [-i, -1, 0]])]
    for h, e, fv in candidates:
        if (iszero(amod(field, br(h, e) - 2 * e))
                and iszero(amod(field, br(h, fv) + 2 * fv))
                and iszero(amod(field, br(e, fv) - h))):
            return {"h": h, "e": e, "f": fv}
    raise ValueError("no split sl2 triple found")


def sl2_identification(tits: TitsAlgebra, tkk: TkkAlgebra) -> ExplicitIso:
    """The isomorphism from the tensor construction over the inner
    derivations onto the 3-graded construction.

    Uses a split sl2 triple: e tensor x goes to the +1 copy, half h
    tensor x to the left multiplication, half f tensor x to the -1
    copy, and the derivation block is carried across unchanged."""
    f = tits.field
    if tits.jalg is not tkk.jalg:
        raise ValueError("the two constructions are over different algebras")
    if not tits.dspace.equals(tkk.inder):
        raise ValueError("the tensor construction is not over the inner "
                         "derivations")
    triple = find_sl2_triple(f)
    base = np.stack([triple["h"], triple["e"], triple["f"]], axis=1)
    binv = inverse(f, base)  # rows: coordinates of E_i in (h, e, f)

    m = np.zeros((tits.n, tits.n), dtype=f.dtype)
    for i in range(3):
        # the +1, -1 and L copies take e, 2 f and 2 h coordinates of E_i
        for k, coef in enumerate(binv[[1, 2, 0], i] * [1, 2, 2]):
            m[tkk._copy[k], tits._copy[i]] += coef
    for par, cnt in enumerate(tits.dspace.dims):
        for k in range(cnt):
            m[tkk.idx_der(par, k), tits.idx_der(par, k)] = 1.0
    lm = LinearMap(tits, tkk, 0, amod(f, m))
    v = is_isomorphism(lm)
    detail = {"sl2": {k: [f.scalar_to_json(c) for c in vec]
                      for k, vec in triple.items()}}
    return ExplicitIso(lm, v, detail)


def lie_from_derivations(ds: DerivationSpace) -> LieSuperAlgebra:
    """A derivation space as an abstract Lie superalgebra over its
    canonical basis, brackets expressed in coordinates."""
    m0, m1 = ds.dims
    q, u, x = ds.bracket_coordinates()
    lie = LieSuperAlgebra(ds.algebra.field, m0, m1,
                          [f"D{k}" for k in range(m0 + m1)],
                          (q // ds.dim, q % ds.dim, u, x))
    lie.space = ds
    return lie


def der_as_tkk(ck: ChengKac, kd: KantorDouble, act: S4Action,
               transfer: CoordinateTransfer,
               der_j: DerivationSpace, inder_j: DerivationSpace,
               tits_stable: TitsAlgebra, tits_inner: TitsAlgebra):
    """Realize the big derivation algebra as the tensor construction
    over the Kantor double K: tits_stable is the one over the stable
    derivations of K (stable_der_double), tits_inner the one over its
    inner derivations, both built by tits_construction on kd.alg.

    The tensor part sends the i-th matrix unit against z to the
    conjugate, under the cyclic symmetry, of the image phi(z)
    (transfer.images), a relabeling of its entries.  The derivation
    part inverts the transfer of the [0,0] fine component, in
    coordinates over the derivations of the double, once; the
    preimages are one join of those coordinates with the component
    entries.  Returns the verified isomorphisms for the full derivation
    algebra over the stable double and for the inner derivations over
    the inner double.  When the two spaces are equal, as they are for J
    at every p, both isomorphisms take the one Lie table of der_j."""
    f, n, nk = ck.alg.field, ck.alg.n, kd.alg.n
    par, images = kd.alg.parities, transfer.images
    first = _conjugate_entries(f, act.phi.matrix, images)
    # map i nk + j is the image of copy i of e_j, as in tits._copy
    tensor = ((par, first), (par, _conjugate_entries(f, act.phi.matrix,
                                                      first)), (par, images))

    def build(tits, jspace, lie):
        idspace = tits.dspace
        comp = grade_derivations(jspace).component((0, 0))
        _, (q, r, c, x) = transfer.apply(*comp.stack())
        co = idspace.coordinates((q * nk + c) * nk + r, x)
        if co is None:
            raise ValueError("transfer leaves the derivations of K")
        t = np.zeros((comp.dim, idspace.dim), dtype=f.dtype)
        t[co[0], co[1]] = co[2]
        tinv = inverse(f, t)
        u, s = np.nonzero(tinv)
        pre = combination_entries(f, n, (u, s, tinv[u, s]), comp.entries())
        cols = np.concatenate([tits._copy.ravel(), tits._der])
        q, r, c, x = _chain(*tensor)[1]
        co = jspace.coordinates(
            np.r_[(q * n + c) * n + r, pre[0] + 3 * nk * n * n],
            np.r_[x, pre[1]])
        if co is None:
            raise ValueError("map lies outside the derivation space")
        m = np.zeros((lie.n, tits.n), dtype=f.dtype)
        m[co[1], cols[co[0]]] = co[2]
        lm = LinearMap(tits, lie, 0, m)
        return ExplicitIso(lm, is_isomorphism(lm))

    lie = lie_from_derivations(der_j)
    full = build(tits_stable, der_j, lie)
    if der_j.equals(inder_j):
        return full, build(tits_inner, der_j, lie)
    return full, build(tits_inner, inder_j, lie_from_derivations(inder_j))
