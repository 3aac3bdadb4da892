"""Lie superalgebra constructions over the Jordan layer.

Builds the bracket structure on three tensor copies of a Jordan
superalgebra against skew-symmetric 3 x 3 matrices plus a derivation
algebra, the 3-graded Tits-Kantor-Koecher superalgebra, the explicit
identification between the two through a split sl2 triple, and the
realization of the big derivation algebra as such a construction over
the rank-2 double.
"""

from dataclasses import dataclass

import numpy as np

from .constructions import ChengKac, KantorDouble
from .derivations import (DerivationSpace, grade_derivations,
                          inner_derivation_algebra)
from .linalg import amod, asfield, inverse, iszero, rank, solve_right
from .superalg import (LinearMap, SuperAlgebra, Verdict,
                       inner_derivation_rows, is_homomorphism)
from .symmetry import CoordinateAlgebra, CoordinateTransfer, S4Action, \
    conjugate_der


class LieSuperAlgebra(SuperAlgebra):
    """A superalgebra whose product is a super bracket, with an
    optional 3-grading tag (-1, 0, +1) per basis vector."""

    def __init__(self, field, dim_even, dim_odd, labels, brackets,
                 grading=None):
        super().__init__(field, dim_even, dim_odd, labels, brackets)
        self.grading = list(grading) if grading is not None else None

    @property
    def brackets(self):
        return self.products

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
        brs = {(int(i), int(j)): [(int(k), f.scalar_from_json(c))
                                  for k, c in terms]
               for i, j, terms in obj["brackets"]}
        return cls(f, int(obj["dim_even"]), int(obj["dim_odd"]),
                   obj["labels"], brs, obj.get("grading"))


def check_3grading(lie: LieSuperAlgebra) -> Verdict:
    """Brackets of tagged vectors must land in the summed tag, and be
    zero once the sum leaves {-1, 0, 1}."""
    if lie.grading is None:
        return Verdict(False, {"reason": "no grading tags"})
    g = lie.grading
    for (i, j), terms in lie.products.items():
        s = g[i] + g[j]
        if abs(s) > 1 and terms:
            return Verdict(False, {"pair": (lie.labels[i], lie.labels[j]),
                                   "reason": "nonzero bracket outside the "
                                   "grading range"})
        for k, _ in terms:
            if g[k] != s:
                return Verdict(False, {"pair": (lie.labels[i], lie.labels[j]),
                                       "lands_on": lie.labels[k]})
    return Verdict(True)


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
    brackets = {}
    for i in range(3):
        j = (i + 1) % 3
        k = (i + 2) % 3
        brackets[(i, j)] = [(k, 1)]
        brackets[(j, i)] = [(k, -1)]
    lie = LieSuperAlgebra(field, 3, 0, ["E1", "E2", "E3"], brackets)
    lie.matrices = _E_MATRICES
    tf = np.zeros((3, 3), dtype=int)
    for i in range(3):
        for j in range(3):
            tf[i, j] = np.trace(_E_MATRICES[i] @ _E_MATRICES[j])
            comm = _E_MATRICES[i] @ _E_MATRICES[j] \
                - _E_MATRICES[j] @ _E_MATRICES[i]
            want = sum(c * _E_MATRICES[k]
                       for k, c in brackets.get((i, j), []))
            if not np.array_equal(comm, want if brackets.get((i, j))
                                  else np.zeros((3, 3))):
                raise AssertionError("matrix model broke its own table")
    if not np.array_equal(tf, -2 * np.eye(3)):
        raise AssertionError("trace form is not -2 times the identity")
    lie.trace_form = asfield(field, tf)
    return lie


class ThreeCopyAlgebra(LieSuperAlgebra):
    """A Lie superalgebra on three copies of a superalgebra J plus a
    space of derivations of J, with index helpers.

    Basis order: the even part of each copy in turn, the even
    derivations, then the odd part of each copy in turn, the odd
    derivations."""

    def __init__(self, field, labels, brackets, grading, jalg, dspace):
        self._copy, self._der = self.layout(jalg, dspace)
        n0, n1 = jalg.dim_even, jalg.dim_odd
        m0, m1 = dspace.dims
        super().__init__(field, 3 * n0 + m0, 3 * n1 + m1, labels, brackets,
                         grading)
        self.jalg = jalg
        self.dspace = dspace

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

    def idx_tensor(self, i: int, a: int) -> int:
        return self.idx_copy(i, a)


class TkkAlgebra(ThreeCopyAlgebra):
    """3-graded bracket structure on J_+1 + (L_J + Inder J) + J_-1; the
    copies are the +1 copy, the -1 copy and the left multiplications."""

    @property
    def inder(self):
        return self.dspace

    def idx_plus(self, a: int) -> int:
        return self.idx_copy(0, a)

    def idx_minus(self, a: int) -> int:
        return self.idx_copy(1, a)

    def idx_lmult(self, a: int) -> int:
        return self.idx_copy(2, a)


def _three_copy_lie(cls, jalg: SuperAlgebra, ds: DerivationSpace, copies,
                    dcoef, label_fmts, tags=None):
    """The bracket table on three copies of J plus the derivations ds.

    copies maps an ordered pair of copies (i, j) to (k, s), and dcoef
    maps it to c: then [(i, a), (j, b)] = s (k, ab) + c D(a, b).  A
    derivation acts on every copy, [d, (i, a)] = (i, d(a)), and the
    reverse order follows by super antisymmetry.  label_fmts and tags
    give each copy's label template and 3-grading tag, if any."""
    f = jalg.field
    n = jalg.n
    par = jalg.parities
    m0, m1 = ds.dims
    copy, der = cls.layout(jalg, ds)
    parts = []  # blocks of (rows, cols, outs, vals), see _coo_brackets

    # D(a, b) in coordinates over ds
    dco = np.zeros((n, n, m0 + m1), dtype=f.dtype)
    for a, rows, par_ab in inner_derivation_rows(jalg):
        for parity, off in ((0, 0), (1, m0)):
            sel = par_ab == parity
            co = ds.subspace(parity).coords_of(rows[sel])
            if co is None:
                raise ValueError("inner derivation escapes the derivation "
                                 "space")
            dco[a, sel, off:off + co.shape[1]] = co

    t = jalg.tensor()
    prod = np.nonzero(t)
    dnz = np.nonzero(dco)
    for (i, j), (k, s) in copies.items():
        parts.append((copy[i, prod[0]], copy[j, prod[1]], copy[k, prod[2]],
                      s * t[prod]))
    for (i, j), c in dcoef.items():
        parts.append((copy[i, dnz[0]], copy[j, dnz[1]], der[dnz[2]],
                      c * dco[dnz]))

    dbasis = ds.even_basis + ds.odd_basis
    if dbasis:
        dmats = np.stack([d.matrix for d in dbasis])
        u, r, a = np.nonzero(dmats)
        v = dmats[u, r, a]
        sgn = np.where((u >= m0) & (par[a] == 1), -1.0, 1.0)
        for i in range(3):
            parts.append((der[u], copy[i, a], copy[i, r], v))
            parts.append((copy[i, a], der[u], copy[i, r], -sgn * v))
        brk = ds.structure_constants()
        nz = np.nonzero(brk)
        parts.append((der[nz[0]], der[nz[1]], der[nz[2]], brk[nz]))

    labels = [""] * (3 * n + m0 + m1)
    for i in range(3):
        for a in range(n):
            labels[copy[i, a]] = label_fmts[i].format(jalg.labels[a])
    for u in range(m0 + m1):
        labels[der[u]] = f"d{u}"
    grading = None
    if tags is not None:
        g = np.zeros(len(labels), dtype=int)
        for i in range(3):
            g[copy[i]] = tags[i]
        grading = g.tolist()
    brackets = _coo_brackets(f, *(np.concatenate(x) for x in zip(*parts)))
    return cls(f, labels, brackets, grading, jalg, ds)


def _coo_brackets(f, rows, cols, outs, vals):
    """Bracket dict from coordinate lists: [e_row, e_col] has the term
    val e_out.  Zero terms are dropped; keys come in index order."""
    vals = asfield(f, vals)
    keep = np.nonzero(vals)[0]
    keep = keep[np.lexsort((outs[keep], cols[keep], rows[keep]))]
    brackets = {}
    for i, j, k, c in zip(rows[keep].tolist(), cols[keep].tolist(),
                          outs[keep].tolist(), vals[keep].tolist()):
        brackets.setdefault((i, j), []).append((k, c))
    return brackets


def tits_construction(jalg: SuperAlgebra, dspace: DerivationSpace,
                      inder: DerivationSpace | None = None) -> TitsAlgebra:
    """The Lie superalgebra on (so3 tensor J) + d.

    Brackets: two tensors bracket through the so3 bracket on the matrix
    side and the Jordan product on the other, plus half the trace form
    times the inner derivation; d acts on tensors componentwise.

    Preconditions checked: the inner derivations sit inside d and d is
    closed under the super commutator.  Either failure raises.
    """
    if inder is None:
        inder = inner_derivation_algebra(jalg)
    for par in (0, 1):
        if not dspace.subspace(par).contains(inder.subspace(par)):
            raise ValueError("derivation space misses inner derivations")
    # half the trace form of so3 is -1 on the diagonal
    copies = {pair: term for pair, (term,) in so3(jalg.field).brackets.items()}
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
    kept separate; their intersection is checked to be zero rather
    than assumed (for a unital algebra a left multiplication never
    kills the unit unless it is zero)."""
    f = jalg.field
    n = jalg.n
    if jalg.unit_index is None:
        raise ValueError("the construction needs a unital algebra")
    if inder is None:
        inder = inner_derivation_algebra(jalg)
    # row a of the reshaped tensor is L_a flattened column-major
    stacked = np.vstack([jalg.tensor().reshape(n, n * n)]
                        + [d.flatten()
                           for d in inder.even_basis + inder.odd_basis])
    if rank(f, stacked) != n + inder.dim:
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
    lie = so3(field)
    t = lie.tensor()

    def br(u, v):
        return amod(field, np.einsum("i,j,ijk->k", u, v, t))

    candidates = [(
        asfield(field, [0, 0, 2 * i]),
        asfield(field, [-i, 1, 0]),
        asfield(field, [-i, -1, 0]),
    )]
    for h, e, fv in candidates:
        ok = (iszero(amod(field, br(h, e) - 2 * e))
              and iszero(amod(field, br(h, fv) + 2 * fv))
              and iszero(amod(field, br(e, fv) - h)))
        if ok:
            return {"h": h, "e": e, "f": fv}
    raise ValueError("no split sl2 triple found")


def sl2_identification(tits: TitsAlgebra, tkk: TkkAlgebra) -> ExplicitIso:
    """The isomorphism from the tensor construction over the inner
    derivations onto the 3-graded construction.

    Uses a split sl2 triple: e tensor x goes to the +1 copy, half h
    tensor x to the left multiplication, half f tensor x to the -1
    copy, and the derivation block is carried across unchanged."""
    f = tits.field
    jalg = tits.jalg
    if jalg is not tkk.jalg:
        raise ValueError("the two constructions are over different algebras")
    if not tits.dspace.equals(tkk.inder):
        raise ValueError("the tensor construction is not over the inner "
                         "derivations")
    triple = find_sl2_triple(f)
    base = np.stack([triple["h"], triple["e"], triple["f"]], axis=1)
    binv = inverse(f, base)  # rows: coordinates of E_i in (h, e, f)

    n = jalg.n
    total = tits.n
    m = np.zeros((total, total), dtype=f.dtype)
    for i in range(3):
        ch, ce, cf = binv[0, i], binv[1, i], binv[2, i]
        for a in range(n):
            src = tits.idx_tensor(i, a)
            m[tkk.idx_lmult(a), src] += 2 * ch
            m[tkk.idx_plus(a), src] += ce
            m[tkk.idx_minus(a), src] += 2 * cf
    m0, m1 = tits.dspace.dims
    for par, cnt in ((0, m0), (1, m1)):
        for k in range(cnt):
            m[tkk.idx_der(par, k), tits.idx_der(par, k)] = 1.0
    m = amod(f, m)
    lm = LinearMap(tits, tkk, 0, m)
    v = is_homomorphism(lm)
    if v and rank(f, m) != total:
        v = Verdict(False, {"reason": "not bijective"})
    detail = {"sl2": {k: [f.scalar_to_json(c) for c in vec]
                      for k, vec in triple.items()}}
    return ExplicitIso(lm, v, detail)


def lie_from_derivations(ds: DerivationSpace) -> LieSuperAlgebra:
    """A derivation space as an abstract Lie superalgebra over its
    canonical basis, brackets expressed in coordinates."""
    m0, m1 = ds.dims
    c = ds.structure_constants()
    nz = np.nonzero(c)
    lie = LieSuperAlgebra(ds.algebra.field, m0, m1,
                          [f"D{k}" for k in range(m0 + m1)],
                          _coo_brackets(ds.algebra.field, *nz, c[nz]))
    lie.space = ds
    return lie


def _der_lie_coords(lie: LieSuperAlgebra, dmap: LinearMap):
    """Coordinates of a derivation in the abstract copy of its space."""
    ds = lie.space
    co = ds.subspace(dmap.parity).coords_of(dmap.flatten())
    if co is None:
        raise ValueError("map lies outside the derivation space")
    m0 = ds.dims[0]
    out = np.zeros(lie.n, dtype=lie.field.dtype)
    off = 0 if dmap.parity == 0 else m0
    out[off:off + len(co)] = co
    return out


def der_as_tkk(ck: ChengKac, kd: KantorDouble, act: S4Action,
               coord: CoordinateAlgebra, phi: LinearMap,
               transfer: CoordinateTransfer,
               der_j: DerivationSpace, inder_j: DerivationSpace,
               bar_k: DerivationSpace, inder_k: DerivationSpace):
    """Realize the big derivation algebra as the tensor construction
    over the rank-2 double.

    The tensor part of the map sends the i-th matrix unit against z to
    the conjugate, under the cyclic symmetry, of the coordinate image
    of z; the derivation part inverts the bracket transfer.  Returns
    the verified isomorphism for the full derivation algebra over the
    stable double, and the one for the inner derivations over the
    inner double."""
    f = ck.alg.field

    def build(idspace, jspace):
        tits = tits_construction(kd.alg, idspace, inder=inder_k)
        lie = lie_from_derivations(jspace)
        comp00 = grade_derivations(jspace).component((0, 0))
        arows = {
            0: np.stack([transfer.apply(b).flatten()
                         for b in comp00.even_basis]),
            1: np.stack([transfer.apply(b).flatten()
                         for b in comp00.odd_basis]),
        }
        n_k = kd.alg.n
        total = tits.n
        m = np.zeros((lie.n, total), dtype=f.dtype)
        for j in range(n_k):
            base = coord.as_map(phi.matrix[:, j])
            iota = {
                2: base,
                0: conjugate_der(act.phi, base),
            }
            iota[1] = conjugate_der(act.phi, iota[0])
            for i in range(3):
                m[:, tits.idx_tensor(i, j)] = \
                    _der_lie_coords(lie, iota[i])
        dbasis = [(0, b) for b in idspace.even_basis] + \
                 [(1, b) for b in idspace.odd_basis]
        m0 = idspace.dims[0]
        for t, (par, b) in enumerate(dbasis):
            c = solve_right(f, arows[par].T, b.flatten())
            if c is None:
                raise ValueError("derivation of the double is outside the "
                                 "transferred image")
            parts = (comp00.even_basis if par == 0 else comp00.odd_basis)
            total_m = sum((ci * p.matrix for ci, p in zip(c, parts)),
                          np.zeros_like(parts[0].matrix))
            pre = LinearMap(ck.alg, ck.alg, par, amod(f, total_m),
                            check=False)
            m[:, tits.idx_der(par, t if par == 0 else t - m0)] = \
                _der_lie_coords(lie, pre)
        m = amod(f, m)
        lm = LinearMap(tits, lie, 0, m)
        v = is_homomorphism(lm)
        if v and (tits.n != lie.n or rank(f, m) != lie.n):
            v = Verdict(False, {"reason": "not bijective"})
        return ExplicitIso(lm, v)

    return build(bar_k, der_j), build(inder_k, inder_j)
