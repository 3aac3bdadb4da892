"""Finite-dimensional superalgebras by structure constants, and the
exact checks used on them: supercommutativity, the Jordan superidentity
in operator form, the super Jacobi identity, the Leibniz rule, and
homomorphism/automorphism verification.

All checks run on a dense structure tensor T[i,j,k] (coefficient of e_k
in e_i e_j), held in the dtype of the algebra's field like every other
array here, with blocked BLAS contractions, and report the first
violating pair or triple in lexicographic basis order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldSpec
from .linalg import Subspace, amod, asfield, iszero, kernel, mm, rank


@dataclass
class Verdict:
    """Outcome of a structural check, with a witness on failure."""

    ok: bool
    witness: dict | None = None

    def __bool__(self):
        return self.ok


def _first_bad_pair(diff, labels):
    """First (i,j) with a nonzero slice of diff[i,j,:], or None."""
    flat = np.abs(diff).reshape(diff.shape[0], diff.shape[1], -1).sum(axis=2)
    bad = np.argwhere(flat != 0)
    if not bad.size:
        return None
    i, j = min((int(a), int(b)) for a, b in bad)
    return {"pair": [i, j], "labels": [labels[i], labels[j]]}


class SuperAlgebra:
    """A superalgebra given by basis labels and structure constants.

    products maps (i, j) to a list of (k, scalar) pairs; both orders
    (i, j) and (j, i) are stored explicitly.  Basis vectors 0 ..
    dim_even-1 are even, the rest odd.  Structure constants must be
    parity homogeneous; a declared unit must act as one; declared fine
    Z2 x Z2 labels must be additive on products.
    """

    def __init__(self, field: FieldSpec, dim_even: int, dim_odd: int,
                 labels, products, unit_index=None, fine_label=None):
        self.field = field
        self.dim_even = dim_even
        self.dim_odd = dim_odd
        self.n = dim_even + dim_odd
        self.labels = list(labels)
        if len(self.labels) != self.n:
            raise ValueError("label count does not match dimension")
        self.unit_index = unit_index
        self.fine_label = [tuple(t) for t in fine_label] if fine_label else None
        self.parities = np.zeros(self.n, dtype=np.int64)
        self.parities[dim_even:] = 1
        self.products = {}
        for (i, j), terms in products.items():
            cleaned = []
            for k, c in sorted(terms):
                c = field.reduce(c)
                if c != 0:
                    cleaned.append((int(k), c))
            if cleaned:
                self.products[(int(i), int(j))] = cleaned
        self._tensor = None
        self._validate()

    # -- basics ----------------------------------------------------------

    def parity(self, i: int) -> int:
        return int(self.parities[i])

    def basis_vector(self, i: int):
        v = np.zeros(self.n, dtype=self.field.dtype)
        v[i] = 1
        return v

    def tensor(self):
        """Dense structure tensor T[i,j,k] in the field's dtype, cached
        and read-only."""
        if self._tensor is None:
            t = np.zeros((self.n, self.n, self.n), dtype=self.field.dtype)
            for (i, j), terms in self.products.items():
                for k, c in terms:
                    t[i, j, k] = c
            t.flags.writeable = False
            self._tensor = t
        return self._tensor

    def multiply(self, u, v):
        u, v = asfield(self.field, u), asfield(self.field, v)
        return amod(self.field, np.einsum("i,j,ijk->k", u, v, self.tensor()))

    def left_mult(self, a) -> "LinearMap":
        """The operator x -> a x for homogeneous a."""
        a = asfield(self.field, a)
        par = vector_parity(self, a)
        m = amod(self.field, np.einsum("i,icr->rc", a, self.tensor()))
        return LinearMap(self, self, par, m)

    def sign_table(self):
        """(-1)^(|i||j|) as an (n, n) float array."""
        p = self.parities
        return 1.0 - 2.0 * (p[:, None] * p[None, :])

    # -- validation ------------------------------------------------------

    def _validate(self):
        par = self.parities
        for (i, j), terms in self.products.items():
            want = (par[i] + par[j]) % 2
            for k, _ in terms:
                if par[k] != want:
                    raise ValueError(
                        f"product {self.labels[i]} * {self.labels[j]} is not "
                        "parity homogeneous")
            if self.fine_label is not None:
                fi, fj = self.fine_label[i], self.fine_label[j]
                want_f = ((fi[0] + fj[0]) % 2, (fi[1] + fj[1]) % 2)
                for k, _ in terms:
                    if self.fine_label[k] != want_f:
                        raise ValueError(
                            f"product {self.labels[i]} * {self.labels[j]} "
                            "breaks the fine grading")
        if self.unit_index is not None:
            u = self.basis_vector(self.unit_index)
            t = self.tensor()
            left = amod(self.field, np.einsum("i,icr->cr", u, t))
            right = amod(self.field, np.einsum("j,cjr->cr", u, t))
            eye = np.eye(self.n)
            if not (iszero(left - eye) and iszero(right - eye)):
                raise ValueError("declared unit does not act as a unit")

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        f = self.field
        prods = [[i, j, [[k, f.scalar_to_json(c)] for k, c in terms]]
                 for (i, j), terms in sorted(self.products.items())]
        return {
            "field": f.to_json(),
            "dim_even": self.dim_even,
            "dim_odd": self.dim_odd,
            "labels": self.labels,
            "unit": self.unit_index,
            "fine_label": [list(t) for t in self.fine_label]
            if self.fine_label else None,
            "products": prods,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SuperAlgebra":
        f = FieldSpec.from_json(obj["field"])
        prods = {(int(i), int(j)): [(int(k), f.scalar_from_json(c))
                                    for k, c in terms]
                 for i, j, terms in obj["products"]}
        return cls(f, int(obj["dim_even"]), int(obj["dim_odd"]),
                   obj["labels"], prods, obj.get("unit"),
                   obj.get("fine_label"))


def vector_parity(a: SuperAlgebra, v) -> int:
    """Parity of a homogeneous vector; raises on mixed support."""
    v = np.asarray(v)
    even = np.any(v[:a.dim_even])
    odd = np.any(v[a.dim_even:])
    if even and odd:
        raise ValueError("vector is not parity homogeneous")
    return 1 if odd else 0


class LinearMap:
    """A parity-homogeneous linear map between superalgebra carriers.

    matrix has shape (target dim, source dim); columns are images of
    source basis vectors.  Entries outside the parity-compatible blocks
    must vanish.
    """

    def __init__(self, source: SuperAlgebra, target: SuperAlgebra,
                 parity: int, matrix, check: bool = True):
        self.source = source
        self.target = target
        self.parity = int(parity)
        self.matrix = asfield(source.field, matrix)
        if self.matrix.shape != (target.n, source.n):
            raise ValueError("matrix shape does not match carriers")
        if check:
            tp = target.parities[:, None]
            sp = source.parities[None, :]
            banned = (tp != (sp + self.parity) % 2)
            if np.any(self.matrix[banned]):
                raise ValueError("matrix violates its declared parity")

    @property
    def field(self):
        return self.source.field

    def __call__(self, v):
        return amod(self.field, self.matrix @ asfield(self.field, v))

    def flatten(self):
        """Column-major flattening; the canonical span coordinate order."""
        return self.matrix.flatten(order="F")

    @classmethod
    def from_flat(cls, source, target, parity, flat, check=True):
        m = np.asarray(flat).reshape((target.n, source.n), order="F")
        return cls(source, target, parity, m, check=check)

    def compose(self, other: "LinearMap") -> "LinearMap":
        if other.target is not self.source and other.target.n != self.source.n:
            raise ValueError("composition carriers do not match")
        return LinearMap(other.source, self.target,
                         (self.parity + other.parity) % 2,
                         mm(self.field, self.matrix, other.matrix), check=False)


def super_commutator(d1: LinearMap, d2: LinearMap) -> LinearMap:
    """[d1, d2] = d1 d2 - (-1)^(|d1||d2|) d2 d1 on a common carrier."""
    f = d1.field
    sign = -1.0 if d1.parity and d2.parity else 1.0
    m = amod(f, d1.matrix @ d2.matrix - sign * (d2.matrix @ d1.matrix))
    return LinearMap(d1.source, d1.target, (d1.parity + d2.parity) % 2, m,
                     check=False)


def super_commutator_rows(field, mats, parities):
    """Supercommutators of a stack of parity-homogeneous n x n matrices,
    one left factor at a time.

    Yields (i, rows, parity): rows[j] is [mats[i], mats[j]] flattened
    column-major and reduced, and parity[j] its parity.  Batching over
    j keeps memory at a few arrays the size of mats."""
    k, n = mats.shape[:2]
    for i in range(k):
        sign = np.where((parities[i] * parities) == 1, -1.0, 1.0)
        d = np.matmul(mats[i], mats) - sign[:, None, None] * np.matmul(mats, mats[i])
        yield i, amod(field, d.transpose(0, 2, 1).reshape(k, n * n)), \
            (parities[i] + parities) % 2


def inner_derivation(a: SuperAlgebra, u, v) -> LinearMap:
    """D(u, v), the supercommutator of the left multiplications."""
    return super_commutator(a.left_mult(u), a.left_mult(v))


def inner_derivation_rows(a: SuperAlgebra):
    """D(e_i, e_j) = [L_i, L_j] for all j, one i at a time; see
    super_commutator_rows."""
    lmats = np.ascontiguousarray(a.tensor().transpose(0, 2, 1))
    return super_commutator_rows(a.field, lmats, a.parities)


# -- identity checks -----------------------------------------------------


def check_supercommutative(a: SuperAlgebra) -> Verdict:
    t = a.tensor()
    s = a.sign_table()
    diff = amod(a.field, t - s[:, :, None] * t.transpose(1, 0, 2))
    w = _first_bad_pair(diff, a.labels)
    return Verdict(w is None, w)


def check_jordan_super(a: SuperAlgebra) -> Verdict:
    """Jordan superidentity, as the operator identity

        (-1)^(|x||z|) D(x, y z) + (-1)^(|y||x|) D(y, z x)
            + (-1)^(|z||y|) D(z, x y) = 0

    evaluated on all homogeneous basis triples (x, y, z), where D(u, v)
    is the supercommutator of left multiplications.  The caller should
    check supercommutativity separately; the witness is the first
    violating triple in lexicographic order.
    """
    f = a.field
    n = a.n
    de = a.dim_even
    t = a.tensor()
    # dd[i, j] is the flattened matrix of D(e_i, e_j), built one i at a
    # time: the all-pairs einsum would need several full (n, n, n, n)
    # temporaries, too much at the larger sizes.
    dd = np.empty((n, n, n * n), dtype=t.dtype)
    for i, rows, _ in inner_derivation_rows(a):
        dd[i] = rows
    # The three-term sum is invariant under cyclic rotation of (x, y, z),
    # so it vanishes on every triple iff it vanishes whenever x is the
    # least index.  Restricting y, z >= x also keeps the witness honest:
    # the failing set is a union of cyclic orbits, hence the first
    # failure in lexicographic order always has minimal x.  With y and z
    # at least x the signs are constant on each parity block, so they
    # fold into the small structure-tensor factors instead of the
    # operator-sized products.
    for x in range(n):
        zc = n - x
        # sgn(x, z) is constant over z >= x once x is fixed
        tyz = t[:, x:, :] if x < de else -t[:, x:, :]
        tyz = np.ascontiguousarray(tyz)
        # sgn(y, x) is likewise constant over y >= x
        tzx = np.ascontiguousarray(t[x:, x, :] if x < de else -t[x:, x, :])
        txc_even = t[x, x:, :]                       # (y, j), y >= x
        # for odd z the third term carries (-1)^|y| on the y rows
        pv = np.ones(zc)
        pv[max(0, de - x):] = -1
        txc_odd = txc_even * pv[:, None]
        ze = max(0, de - x)                          # even z count in range
        # bound the per-chunk temporaries to roughly 64 MB apiece
        chunk = max(1, min(zc, (1 << 26) // max(1, zc * n * n * t.itemsize)))
        for start in range(x, n, chunk):
            stop = min(start + chunk, n)
            m = stop - start
            # sgn(x,z) D(x, y z):  sum_j t[y,z,j] dd[x,j,F]
            acc = (tyz[start:stop].reshape(m * zc, n) @ dd[x]) \
                .reshape(m, zc, n * n)
            # sgn(y,x) D(y, z x):  sum_j t[z,x,j] dd[y,j,F]
            acc += np.matmul(tzx[None], dd[start:stop])
            # sgn(z,y) D(z, x y):  sum_j t[x,y,j] dd[z,j,F]
            if ze:
                p3 = np.matmul(txc_even[None, start - x:stop - x], dd[x:de])
                acc[:, :ze] += p3.transpose(1, 0, 2)
            if max(x, de) < n:
                p3 = np.matmul(txc_odd[None, start - x:stop - x],
                               dd[max(x, de):])
                acc[:, ze:] += p3.transpose(1, 0, 2)
            acc = amod(f, acc)
            if np.any(acc):
                flat = np.abs(acc).sum(axis=2)
                bad = np.argwhere(flat != 0)
                y, z = min((int(b), int(c)) for b, c in bad)
                return Verdict(False, {
                    "triple": [x, start + y, x + z],
                    "labels": [a.labels[x], a.labels[start + y],
                               a.labels[x + z]]})
    return Verdict(True, None)


def check_super_lie(lie) -> Verdict:
    """Super anticommutativity and the graded Jacobi identity

        (-1)^(|a||c|) [[a,b],c] + (-1)^(|b||a|) [[b,c],a]
            + (-1)^(|c||b|) [[c,a],b] = 0

    on all basis triples, via blocked tensor contractions."""
    f = lie.field
    n = lie.n
    t = lie.tensor()
    s = lie.sign_table()
    anti = amod(f, t + s[:, :, None] * t.transpose(1, 0, 2))
    w = _first_bad_pair(anti, lie.labels)
    if w is not None:
        w["identity"] = "anticommutativity"
        return Verdict(False, w)
    t2 = np.ascontiguousarray(t.reshape(n * n, n))   # ((i j), m)
    tm = np.ascontiguousarray(t.reshape(n, n * n))   # (m, (j k))
    chunk = max(1, min(n, (2 << 27) // (3 * n * n * n * t.itemsize)))
    for start in range(0, n, chunk):
        cs = slice(start, min(start + chunk, n))
        m = min(start + chunk, n) - start
        # j1[a,b,c,k] = sum_m t[a,b,m] t[m,c,k]
        j1 = (t[cs].reshape(m * n, n) @ tm).reshape(m, n, n, n)
        # j2[a,b,c,k] = sum_m t[b,c,m] t[m,a,k]
        j2 = (t2 @ np.ascontiguousarray(t[:, cs, :]).reshape(n, m * n))
        j2 = j2.reshape(n, n, m, n).transpose(2, 0, 1, 3)
        # j3[a,b,c,k] = sum_m t[c,a,m] t[m,b,k]
        j3 = (np.ascontiguousarray(t[:, cs, :]).reshape(n * m, n) @ tm)
        j3 = j3.reshape(n, m, n, n).transpose(1, 2, 0, 3)
        pa = lie.parities[cs]
        pb = lie.parities
        s_ac = 1.0 - 2.0 * (pa[:, None, None] * pb[None, None, :])
        s_ba = 1.0 - 2.0 * (pb[None, :, None] * pa[:, None, None])
        s_cb = 1.0 - 2.0 * (pb[None, None, :] * pb[None, :, None])
        acc = s_ac[..., None] * j1 + s_ba[..., None] * j2 \
            + s_cb[..., None] * j3
        acc = amod(f, acc)
        if np.any(acc):
            flat = np.abs(acc).sum(axis=3)
            bad = np.argwhere(flat != 0)
            a_, b_, c_ = min((int(x), int(y), int(z)) for x, y, z in bad)
            a_ += start
            return Verdict(False, {
                "triple": [a_, b_, c_], "identity": "jacobi",
                "labels": [lie.labels[a_], lie.labels[b_], lie.labels[c_]]})
    return Verdict(True, None)


def is_derivation(a: SuperAlgebra, d: LinearMap) -> Verdict:
    """Super Leibniz rule d(xy) = d(x)y + (-1)^(|d||x|) x d(y) on all
    basis pairs."""
    f = a.field
    t = a.tensor()
    dm = d.matrix
    lhs = np.einsum("ijk,rk->ijr", t, dm, optimize=True)
    rhs1 = np.einsum("mi,mjr->ijr", dm, t, optimize=True)
    rhs2 = np.einsum("imr,mj->ijr", t, dm, optimize=True)
    if d.parity:
        sign_i = (1.0 - 2.0 * a.parities)[:, None, None]
        rhs2 = rhs2 * sign_i
    diff = amod(f, lhs - rhs1 - rhs2)
    w = _first_bad_pair(diff, a.labels)
    return Verdict(w is None, w)


def is_homomorphism(fmap: LinearMap) -> Verdict:
    """f(xy) = f(x)f(y) on all basis pairs of the source."""
    f = fmap.field
    src, tgt = fmap.source, fmap.target
    ns, nt = src.n, tgt.n
    fm = fmap.matrix
    st = src.tensor()
    tt = tgt.tensor()
    lhs = st.reshape(ns * ns, ns) @ fm.T
    lhs = lhs.reshape(ns, ns, nt)
    u = fm.T @ tt.reshape(nt, nt * nt)          # (i, (b c))
    u = u.reshape(ns, nt, nt).transpose(0, 2, 1)  # (i, c, b)
    rhs = (u.reshape(ns * nt, nt) @ fm).reshape(ns, nt, ns)
    rhs = rhs.transpose(0, 2, 1)                 # (i, j, c)
    diff = amod(f, lhs - rhs)
    w = _first_bad_pair(diff, src.labels)
    return Verdict(w is None, w)


def is_automorphism(fmap: LinearMap) -> Verdict:
    """Bijective unital homomorphism of a superalgebra to itself."""
    src, tgt = fmap.source, fmap.target
    if src.n != tgt.n:
        return Verdict(False, {"reason": "dimension mismatch"})
    h = is_homomorphism(fmap)
    if not h:
        return h
    if rank(fmap.field, fmap.matrix) != src.n:
        return Verdict(False, {"reason": "not bijective"})
    if src.unit_index is not None:
        img = fmap(src.basis_vector(src.unit_index))
        if tgt.unit_index is None or \
                not iszero(img - tgt.basis_vector(tgt.unit_index)):
            return Verdict(False, {"reason": "unit not preserved"})
    return Verdict(True, None)


def annihilator(a: SuperAlgebra, vectors) -> Subspace:
    """{z : z s = 0 for every s in vectors} as a Subspace of the carrier."""
    t = a.tensor()
    rows = []
    for s in vectors:
        s = asfield(a.field, s)
        rows.append(amod(a.field, np.einsum("i,cir->rc", s, t)))
    if not rows:
        return Subspace(a.field, a.n, np.eye(a.n, dtype=a.field.dtype))
    return kernel(a.field, np.vstack(rows))


def center_even(a: SuperAlgebra) -> Subspace:
    """Associative-and-commutative center of the even part, as a
    Subspace of the even carrier."""
    n0 = a.dim_even
    t = a.tensor()[:n0, :n0, :n0]
    assoc = np.einsum("cam,mbr->abrc", t, t, optimize=True) - \
        np.einsum("abm,cmr->abrc", t, t, optimize=True)
    comm = amod(a.field, t - t.transpose(1, 0, 2))     # (a, c, r)
    comm_rows = comm.transpose(0, 2, 1).reshape(n0 * n0, n0)
    rows = np.vstack([
        amod(a.field, assoc.reshape(n0 * n0 * n0, n0)),
        comm_rows,
    ])
    return kernel(a.field, rows)
