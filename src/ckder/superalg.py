"""Finite-dimensional superalgebras by structure constants, and the
exact checks used on them: supercommutativity, the Jordan superidentity
in operator form, the super Jacobi identity, the Leibniz rule, and
homomorphism/automorphism verification.

A superalgebra stores its structure constants once, as the COO arrays
of coo(): the nonzero constants as sorted index and value arrays, in the
dtype of the algebra's field like every other array here.  Two views
are derived from them on demand: tensor(), the dense tensor T[i,j,k]
(coefficient of e_k in e_i e_j), for the checks that still contract it,
and products, the constants grouped by pair, for to_json.  The two
symmetry checks and the super Jacobi identity run on coo() as joins
over the nonzero constants, summed per key; the Jordan, Leibniz and
homomorphism checks run blocked BLAS contractions on tensor().  Every
check reports the first violating pair or triple in lexicographic basis
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

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

    The table is stored once, as the four read-only arrays of coo():
    one entry (i, j, k, c) per nonzero constant, c the coefficient of
    e_k in e_i e_j, with both orders (i, j) and (j, i) stored
    explicitly.  The constructor takes such a quadruple in any order,
    with zero or unreduced values, and rejects an index outside [0, n)
    and a repeated (i, j, k).  Basis vectors 0 .. dim_even-1 are even,
    the rest odd.  Structure constants must be parity homogeneous; a
    declared unit must act as one; declared fine Z2 x Z2 labels must be
    additive on products.
    """

    def __init__(self, field: FieldSpec, dim_even: int, dim_odd: int,
                 labels, table, unit_index=None, fine_label=None):
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
        self._coo = self._normalize(table)
        self._products = None
        self._tensor = None
        self._validate()

    def _normalize(self, table):
        """The read-only, reduced, nonzero, lexicographically sorted
        arrays of an (i, j, k, c) quadruple."""
        n = self.n
        i, j, k, c = table
        i, j, k = (np.asarray(x, dtype=np.int64).ravel() for x in (i, j, k))
        c = asfield(self.field, np.asarray(c).ravel())
        if not i.size == j.size == k.size == c.size:
            raise ValueError("table arrays differ in length")
        out = np.flatnonzero((np.minimum(np.minimum(i, j), k) < 0)
                             | (np.maximum(np.maximum(i, j), k) >= n))
        if out.size:
            t = out[0]
            raise ValueError(f"the term e_{k[t]} of the pair ({i[t]}, "
                             f"{j[t]}) has an index outside [0, {n})")
        order = np.lexsort((k, j, i))
        i, j, k, c = i[order], j[order], k[order], c[order]
        twice = np.flatnonzero((np.diff(i) == 0) & (np.diff(j) == 0)
                               & (np.diff(k) == 0))
        if twice.size:
            t = twice[0]
            raise ValueError(f"the pair ({i[t]}, {j[t]}) names e_{k[t]} "
                             "twice")
        keep = c != 0
        arrays = (i[keep], j[keep], k[keep], c[keep])
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    # -- basics ----------------------------------------------------------

    def parity(self, i: int) -> int:
        return int(self.parities[i])

    def basis_vector(self, i: int):
        v = np.zeros(self.n, dtype=self.field.dtype)
        v[i] = 1
        return v

    def coo(self):
        """The stored table: read-only arrays (i, j, k, c) of the nonzero
        constants, c[t] the coefficient of e_k[t] in e_i[t] e_j[t].
        Indices are int64, values reduced in the field's dtype, and
        entries run in lexicographic (i, j, k) order."""
        return self._coo

    @property
    def products(self):
        """coo() grouped by pair, {(i, j): ((k, c), ...)} in index
        order, as a read-only mapping; built once, for to_json."""
        if self._products is None:
            i, j, k, c = self._coo
            grouped = {}
            for key, term in zip(zip(i.tolist(), j.tolist()),
                                 zip(k.tolist(), c.tolist())):
                grouped.setdefault(key, []).append(term)
            self._products = MappingProxyType(
                {key: tuple(terms) for key, terms in grouped.items()})
        return self._products

    def tensor(self):
        """Dense structure tensor T[i,j,k], scattered from coo(); cached
        and read-only."""
        if self._tensor is None:
            t = np.zeros((self.n, self.n, self.n), dtype=self.field.dtype)
            t[self._coo[:3]] = self._coo[3]
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

    # -- validation ------------------------------------------------------

    def _validate(self):
        bad = grading_violation(self, self.parities[:, None])
        if bad is not None:
            raise ValueError(f"product {self.labels[bad[0]]} * "
                             f"{self.labels[bad[1]]} is not parity "
                             "homogeneous")
        if self.fine_label is not None:
            bad = grading_violation(self, self.fine_label)
            if bad is not None:
                raise ValueError(f"product {self.labels[bad[0]]} * "
                                 f"{self.labels[bad[1]]} breaks the fine "
                                 "grading")
        if self.unit_index is not None:
            # e_u e_c = e_c = e_c e_u: the entries with i = u, sorted by
            # j, and those with j = u, sorted by i, are exactly (c, c, 1)
            i, j, k, c = self._coo
            every = np.arange(self.n)
            for sel, other in ((i == self.unit_index, j),
                               (j == self.unit_index, i)):
                if not (np.array_equal(other[sel], every)
                        and np.array_equal(k[sel], every)
                        and np.all(c[sel] == 1)):
                    raise ValueError("declared unit does not act as a unit")

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        f = self.field
        prods = [[i, j, [[k, f.scalar_to_json(c)] for k, c in terms]]
                 for (i, j), terms in self.products.items()]
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
        return cls(f, int(obj["dim_even"]), int(obj["dim_odd"]),
                   obj["labels"], table_from_json(f, obj["products"]),
                   obj.get("unit"), obj.get("fine_label"))


def table_from_json(field: FieldSpec, rows):
    """The (i, j, k, c) quadruple of a JSON table [[i, j, [[k, c], ...]],
    ...], c in the field's JSON scalar form."""
    terms = [(i, j, k, c) for i, j, ts in rows for k, c in ts]
    i, j, k, c = zip(*terms) if terms else ((),) * 4
    return i, j, k, [field.scalar_from_json(x) for x in c]


def grading_violation(a: SuperAlgebra, grades):
    """The first structure constant in lexicographic order that breaks
    a Z2^r grading, as (i, j, k), or None.  grades gives each basis
    vector an r-tuple of bits, its parity or its fine label, and e_i e_j
    must land on grades[i] + grades[j] mod 2."""
    g = np.asarray(grades, dtype=np.int64).reshape(a.n, -1)
    i, j, k, _ = a.coo()
    bad = np.flatnonzero(np.any(g[k] != (g[i] + g[j]) % 2, axis=1))
    if not bad.size:
        return None
    t = bad[0]
    return int(i[t]), int(j[t]), int(k[t])


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


def _first_nonzero_key(field: FieldSpec, keys, vals):
    """Least key whose values sum to a nonzero element, or None.

    The values are summed per integer key with np.unique and np.bincount,
    componentwise over F_{p^2}, and the sums are reduced with amod.  Each
    value must be a reduced field element, or a product of two, up to
    sign, so a key with m terms sums to components of magnitude at most
    m (p-1)^2, or 2 m (p-1)^2 over F_{p^2}.  Raises ValueError when that
    bound reaches 2**52, where amod stops being exact."""
    if not keys.size:
        return None
    uniq, inv = np.unique(keys, return_inverse=True)
    terms = int(np.bincount(inv).max())
    bound = terms * (2 if field.ext else 1) * (field.p - 1) ** 2
    if bound >= 2 ** 52:
        raise ValueError(
            f"{terms} terms on one key over {field} can reach {bound}, "
            "beyond the exact range 2**52 of the reduction")
    sums = np.zeros(uniq.size, dtype=field.dtype)
    sums.real = np.bincount(inv, weights=vals.real, minlength=uniq.size)
    if field.ext:
        sums.imag = np.bincount(inv, weights=vals.imag, minlength=uniq.size)
    bad = np.flatnonzero(amod(field, sums))
    return int(uniq[bad[0]]) if bad.size else None


def _first_asymmetric_pair(a: SuperAlgebra, sign: float):
    """First (i, j) in lexicographic order with e_i e_j different from
    sign (-1)^(|i||j|) e_j e_i, as a witness dict, or None."""
    n = a.n
    i, j, k, c = a.coo()
    s = 1.0 - 2.0 * (a.parities[i] * a.parities[j])
    key = _first_nonzero_key(
        a.field, np.concatenate([(i * n + j) * n + k, (j * n + i) * n + k]),
        np.concatenate([c, -sign * s * c]))
    if key is None:
        return None
    x, y = divmod(key // n, n)
    return {"pair": [x, y], "labels": [a.labels[x], a.labels[y]]}


def check_supercommutative(a: SuperAlgebra) -> Verdict:
    """e_i e_j = (-1)^(|i||j|) e_j e_i on all basis pairs."""
    w = _first_asymmetric_pair(a, 1.0)
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


def expand_runs(starts, counts):
    """Index pairs (t, starts[t] + s) for every t and s < counts[t], as
    two arrays, in t order."""
    t = np.repeat(np.arange(counts.size), counts)
    offset = starts - (np.cumsum(counts) - counts)
    return t, np.arange(t.size) + np.repeat(offset, counts)


def _jacobi_terms(lie):
    """Keys ((a*n + b)*n + c)*n + q and signed values of every term of
    the super Jacobi sum J(a,b,c)_q with a the least of a, b, c.

    Every product T[x,y,m] T[m,z,q] of two constants, one join on m, is
    a term of J1[x,y,z,q] = [[e_x,e_y],e_z]_q.  The three cyclic terms of
    J at (a, b, c) are J1 at (a, b, c), (b, c, a) and (c, a, b), each
    with the sign (-1)^(|x||z|) of its own (x, z), so each product,
    signed once, is keyed to the triples (x,y,z), (z,x,y) and (y,z,x).
    J(a,b,c) does not change when (a, b, c) is rotated, so its zeros
    are known from the rotations that start with their least index, and
    only those keys are kept."""
    n = lie.n
    i, j, k, c = lie.coo()
    # right factors of a left entry (x, y, m): the entries with i == m,
    # a contiguous run since coo() is sorted by i
    lo = np.searchsorted(i, k, "left")
    left, right = expand_runs(lo, np.searchsorted(i, k, "right") - lo)
    x, y, z, q = i[left], j[left], j[right], k[right]
    v = c[left] * c[right] * (1.0 - 2.0 * (lie.parities[x] * lie.parities[z]))
    keys, vals = [], []
    for a, b, d in ((x, y, z), (z, x, y), (y, z, x)):
        keep = (a <= b) & (a <= d)
        keys.append(((a[keep] * n + b[keep]) * n + d[keep]) * n + q[keep])
        vals.append(v[keep])
    return np.concatenate(keys), np.concatenate(vals)


def check_super_lie(lie) -> Verdict:
    """Super anticommutativity and the graded Jacobi identity

        (-1)^(|a||c|) [[a,b],c] + (-1)^(|b||a|) [[b,c],a]
            + (-1)^(|c||b|) [[c,a],b] = 0

    on all basis triples, as joins over the nonzero structure constants
    (see _jacobi_terms).  Anticommutativity fails at the first pair
    (a, b) where [a,b] + (-1)^(|a||b|) [b,a] is nonzero.  The triples
    where the Jacobi sum fails are closed under rotation, so the first
    one in lexicographic order starts with its least index; it is the
    witness."""
    w = _first_asymmetric_pair(lie, -1.0)
    if w is not None:
        w["identity"] = "anticommutativity"
        return Verdict(False, w)
    n = lie.n
    key = _first_nonzero_key(lie.field, *_jacobi_terms(lie))
    if key is None:
        return Verdict(True, None)
    ab, c = divmod(key // n, n)
    a, b = divmod(ab, n)
    return Verdict(False, {
        "triple": [a, b, c], "identity": "jacobi",
        "labels": [lie.labels[a], lie.labels[b], lie.labels[c]]})


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
