"""Finite-dimensional superalgebras by structure constants, and the
exact checks used on them: supercommutativity, the Jordan superidentity
in operator form, the super Jacobi identity, the Leibniz rule, and
homomorphism/automorphism verification.

A superalgebra stores its structure constants once, as the sorted COO
arrays of coo(), in the dtype of its field like every array here;
products (grouped by pair, for to_json) is a view built on demand, and
no dense n x n x n table is built.  multiply and left_mult, every
builder and every check read coo() through a join with the nonzero
entries of the vectors or maps they are given, summed per key with
sum_per_key; a check reports the first violating pair or triple in
lexicographic order.  A stack of sparse maps is their parities and
entries (_chain); their products and supercommutators are joins too.

The cyclic sums of the Jacobi and Jordan identities have far more terms
than the table has constants, so _cyclic_verdict sums them one range of
the output coordinate at a time, each of at most TERM_BUDGET terms.
Given super anticommutativity (Jacobi) or supercommutativity (Jordan)
each sum is super-alternating, so it is keyed at sorted triples only:
the left factors are the pair rows x <= y of the table, each with its
mirror (_pairs_by_output), and a product and its mirror are keyed only
at their sorted rotations (_sorted_terms).  For the 63,774 constants of
the 416-dimensional Tits table over F13 that is 3.3 M terms, where the
whole join made 6.6 M.  The Leibniz rule has the same mirror: on a
super(anti)commutative table (mirror_sign) the rule at (j, i) is a
signed copy of the rule at (i, j), so leibniz_violation and the
Leibniz system of derivations._leibniz_system key only i <= j.  One
engine, _sparse_kernel, solves every sparse linear system: the center,
the annihilator, the Leibniz system and the matrix of is_isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .field import FieldSpec
from .linalg import (Eliminator, Subspace, amod, asfield, check_exact_range,
                     inverses, iszero, mm, rref)

# The most terms one range of a cyclic-sum join (_cyclic_verdict) or of
# the Leibniz system (derivations._leibniz_system) holds: about 3 MB of
# keys and values, whatever the size of the table.
TERM_BUDGET = 1 << 15


@dataclass
class Verdict:
    """Outcome of a structural check, with a witness on failure."""

    ok: bool
    witness: dict | None = None

    def __bool__(self):
        return self.ok


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

    @cached_property
    def mirror_sign(self):
        """The sign e with e_i e_j = e (-1)^(|i||j|) e_j e_i on every basis
        pair: 1.0 on a supercommutative table, -1.0 on a super
        anticommutative one (1.0 if both), None on any other; checked once
        (_first_asymmetric_pair), as the table is immutable."""
        for sign in (1.0, -1.0):
            if _first_asymmetric_pair(self, sign) is None:
                return sign
        return None

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

    def _left_matrices(self, u):
        """L[s, k, j], the coefficient of e_k in u_s e_j, for the rows u_s
        of u: one join of their nonzero entries (s, i) with the constants
        T[i, j, k], summed per key (s, k, j) by sum_per_key."""
        n, (ci, cj, ck, cc) = self.n, self._coo
        u = asfield(self.field, u).reshape(-1, n)
        s, i, x = _entries(self.field, u)
        e, t = _match(i, ci)
        out = np.zeros((len(u), n, n), dtype=self.field.dtype)
        keys, vals = sum_per_key(self.field, (s[e] * n + ck[t]) * n + cj[t],
                                 x[e] * cc[t])
        out.flat[keys] = vals
        return out

    def multiply(self, u, v):
        """u v: the left multiplication by u (_left_matrices) applied to
        the reduced v in one guarded contraction; a 2-D u or v is taken
        row by row."""
        left = self._left_matrices(u).transpose(0, 2, 1)
        return mm(self.field, asfield(self.field, v),
                  left.reshape(*np.shape(u)[:-1], self.n, self.n))

    def left_mult(self, a) -> "LinearMap":
        """The operator x -> a x for homogeneous a: column c is a e_c."""
        a = asfield(self.field, a)
        return LinearMap(self, self, vector_parity(self, a),
                         self._left_matrices(a)[0])

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


def inner_derivation(a: SuperAlgebra, u, v) -> LinearMap:
    """D(u, v), the supercommutator of the left multiplications."""
    return super_commutator(a.left_mult(u), a.left_mult(v))


def inner_derivation_entries(a: SuperAlgebra, pairs=None):
    """The nonzero entries of D(e_u, e_v), keyed q n^2 + c n + r (the
    cell column-major, as in LinearMap.flatten), with reduced values: q
    indexes pairs, or every pair as q = u n + v when pairs is None.
    L_u[r, c] = T[u, c, r] is read from coo() for each basis vector
    named, and all commutators of them come from _brackets."""
    n = a.n
    i, j, k, c = a.coo()
    if pairs is None:
        every = (a.parities, (i, k, j, c))
        return _brackets(a.field, n, every, every)
    named = np.zeros(n, dtype=bool)
    named[np.asarray(pairs, dtype=np.int64)] = True
    index = np.flatnonzero(named)
    pos = np.searchsorted(index, np.asarray(pairs).reshape(-1, 2))
    sel = named[i]
    some = (a.parities[index],
            (np.searchsorted(index, i[sel]), k[sel], j[sel], c[sel]))
    keys, vals = _brackets(a.field, n, some, some)
    st, cell = np.divmod(keys, n * n)
    e, q = _match(st, pos[:, 0] * index.size + pos[:, 1])
    return q * n * n + cell[e], vals[e]


def _product_terms(left, right):
    """The terms of every product M_s N_t of two stacks of sparse maps,
    given by their nonzero entries (s, r, m, M_s[r, m]) and (t, m, c,
    N_t[m, c]): one join on the shared index m.  Returns s, t, r, c and
    the products, unsummed, each a product of two reduced elements."""
    s, r, m, v = left
    t, m2, c, w = right
    a, b = _match(m, m2)
    return s[a], t[b], r[a], c[b], v[a] * w[b]


def _brackets(field: FieldSpec, n: int, left, right):
    """The supercommutators [M_s, N_t] = M_s N_t - (-1)^(|s||t|) N_t M_s
    of the maps of two stacks (see _chain) of parity-homogeneous n x n
    maps, as sum_per_key returns them: keys (s k + t) n^2 + c n + r, k
    the number of maps N_t.  Two product joins, left with right and
    right with left, make every term and no other; a key takes at most
    2n terms."""
    (lp, le), (rp, re) = left, right
    k = len(rp)
    s, t, r, c, st = _product_terms(le, re)
    t2, s2, r2, c2, ts = _product_terms(re, le)
    sign = 1.0 - 2.0 * (np.asarray(lp)[s2] * np.asarray(rp)[t2])
    return sum_per_key(
        field, np.concatenate([((s * k + t) * n + c) * n + r,
                               ((s2 * k + t2) * n + c2) * n + r2]),
        np.concatenate([st, -sign * ts]))


# -- identity checks: joins over the nonzero structure constants ---------


def sum_per_key(field: FieldSpec, keys, vals):
    """The keys whose values sum to a nonzero element, in increasing
    order, and those sums, reduced.

    The values are summed per integer key with np.unique and np.bincount,
    componentwise over F_{p^2}, and the sums are reduced with amod.  Each
    value must be a reduced field element, or a product of two, up to
    sign, so a key with m terms sums to components of magnitude at most
    m (p-1)^2, or 2 m (p-1)^2 over F_{p^2}.  Raises ValueError, through
    check_exact_range, when that bound can leave the exact range of
    amod."""
    uniq, inv = np.unique(keys, return_inverse=True)
    check_exact_range(field, int(np.bincount(inv).max(initial=0)))
    sums = np.zeros(uniq.size, dtype=field.dtype)
    sums.real = np.bincount(inv, weights=vals.real, minlength=uniq.size)
    if field.ext:
        sums.imag = np.bincount(inv, weights=vals.imag, minlength=uniq.size)
    sums = amod(field, sums)
    keep = sums != 0
    return uniq[keep], sums[keep]


def _first_nonzero_key(field: FieldSpec, keys, vals):
    """Least key whose values sum to a nonzero element, or None."""
    uniq, _ = sum_per_key(field, keys, vals)
    return int(uniq[0]) if uniq.size else None


def _first_difference(field, one, other):
    """Least key at which two keyed maps (keys, values) differ, or None."""
    return _first_nonzero_key(field, np.concatenate([one[0], other[0]]),
                              np.concatenate([one[1], -other[1]]))


def _sparse_kernel(field, keys, vals, nu):
    """The nonzero entries (k, u, x_u) of a basis of kernel vectors k of
    a sparse system in nu unknowns given as sum_per_key returns it: keys
    e nu + u, the cell of equation e on unknown u.

    _peel substitutes away the equations of one and two cells, and the
    survivors are eliminated block by block (_eliminate_blocks) on the
    unknowns they use, which are roots; a root not zero that none uses
    is free.  A kernel vector y on the roots gives the kernel vector
    x_u = weight[u] y[root[u]] of the whole."""
    keys, vals, root, weight = _peel(field, keys, vals, nu)
    eq, col = np.divmod(keys, nu)
    eq = np.unique(eq, return_inverse=True)[1]
    used, col = np.unique(col, return_inverse=True)
    free = (root == np.arange(nu)) & (weight != 0)
    free = np.flatnonzero(free & ~np.isin(np.arange(nu), used))
    # when peeling left no equation, eq, col and vals are empty rows
    k, y, x = _eliminate_blocks(field, eq, col, vals, _components(
        eq, col, used.size), Eliminator.kernel_rows) if keys.size else (
        eq, col, vals)
    k = np.concatenate([k, k.max(initial=-1) + 1 + np.arange(free.size)])
    y = np.concatenate([used[y], free])
    x = np.concatenate([x, np.ones(free.size, dtype=field.dtype)])
    live = np.flatnonzero(weight != 0)
    e, t = _match(y, root[live])
    return k[e], live[t], amod(field, x[e] * weight[live[t]])


def _canonical(field, q, cell, vals):
    """The canonical RREF of the span of the sparse rows q, with the
    nonzero reduced vals[t] at cell[t], as the nonzero entries (u, cell,
    value) of its rows u, in the order of their pivots.  The rows split
    into blocks on the cells they share (_components), and the RREF is
    the union of the block RREFs.  A block whose rows are all multiples
    of its first row has that row, scaled to lead 1, as its RREF: each
    row is compared with its block's first row cell by cell, on cells
    and lead-scaled values, all in one step.  Only the other blocks go
    through an Eliminator on their cells (_eliminate_blocks)."""
    order = np.lexsort((cell, q))
    row = np.unique(q[order], return_inverse=True)[1]
    used, col = np.unique(cell[order], return_inverse=True)
    vals = vals[order]
    label = _components(row, col, used.size)
    lead = np.flatnonzero(np.diff(row, prepend=-1))   # first of a row
    length = np.diff(np.r_[lead, row.size])
    scaled = amod(field, vals * inverses(field, vals[lead])[row])
    # h[t]: the first row of the block of cell t, and at[t] the cell of
    # that row in the same place, when the rows are as long
    blocks, first = np.unique(label[col[lead]], return_index=True)
    h = first[np.searchsorted(blocks, label[col])]
    same = length[row] == length[h]
    at = lead[h] + np.minimum(np.arange(row.size) - lead[row], length[h] - 1)
    same &= (col == col[at]) & (scaled == scaled[at])
    one = (np.bincount(label[col[~same]], minlength=used.size) == 0)[
        label[col]]
    k, b, x = _eliminate_blocks(field, row[~one], col[~one], vals[~one],
                                label, lambda elim: elim.rref()[0])
    one &= h == row
    k = np.concatenate([row[one], lead.size + k])
    b = np.concatenate([col[one], b])
    # a row's pivot is its least cell; distinct rows have distinct pivots
    rows, k = np.unique(k, return_inverse=True)
    pivot = np.full(rows.size, used.size)
    np.minimum.at(pivot, k, b)
    return np.argsort(np.argsort(pivot))[k], used[b], np.concatenate(
        [scaled[one], x])


def _peel(field, keys, vals, nu):
    """Substitution rounds on a sparse system given as _sparse_kernel
    takes it, until no equation has fewer than three cells.

    In a round an equation of one cell sets its unknown to zero, and an
    equation c_a x_a + c_b x_b = 0 of two cells, a > b, links a to b:
    x_a = -c_b c_a^-1 x_b.  Each a takes the first such equation in key
    order, and an unknown set to zero takes none.  A parent is smaller
    than its child, so the links form a forest; pointer jumping resolves
    every chain to its root, and a zeroed root zeroes its whole chain.
    Every cell is then rewritten onto its root and re-summed through
    sum_per_key.  The cells that would sum to zero there are dropped
    first: the two of each equation used as a link cancel once both
    sit on their common root, and a cell on an unknown set to zero
    (every cell of a one-cell equation is one) is zero.

    Returns the surviving keys and values, and root and weight with
    x_u = weight[u] x_root[u] for every u; weight 0 marks an unknown
    forced to zero."""
    root = np.arange(nu)
    weight = np.ones(nu, dtype=field.dtype)
    while keys.size:
        eq, col = np.divmod(keys, nu)
        start = np.flatnonzero(np.r_[True, eq[1:] != eq[:-1]])
        size = np.diff(np.r_[start, eq.size])
        zero = np.zeros(nu, dtype=bool)
        zero[col[start[size == 1]]] = True
        t = start[size == 2]
        t = t[~zero[col[t + 1]]]
        a, first = np.unique(col[t + 1], return_index=True)
        if not (a.size or zero.any()):
            break
        t = t[first]
        link = np.arange(nu)
        link[a] = col[t]
        w = np.ones(nu, dtype=field.dtype)
        w[a] = amod(field, -vals[t] * inverses(field, vals[t + 1]))
        while True:
            up = link[link]
            if np.array_equal(up, link):
                break
            w = amod(field, w * w[link])
            link = up
        w[zero[link]] = 0
        weight = amod(field, weight * w[root])
        root = link[root]
        keep = w[col] != 0
        keep[t] = keep[t + 1] = False
        eq, col = eq[keep], col[keep]
        keys, vals = sum_per_key(field, eq * nu + link[col],
                                 vals[keep] * w[col])
    return keys, vals, root, weight


def _eliminate_blocks(field, row, col, vals, label, take):
    """take(elim), elim an Eliminator fed the rows of one block on its
    columns, for each block with a cell here, as the nonzero entries
    (k, column, value) of the rows taken, k counting across blocks.

    The cells vals[t] at (row[t], col[t]) link rows and columns into a
    bipartite graph, and label gives each column its component
    (_components).  A component is a block: its rows involve only its
    columns, so the RREF of the system is the union of the block RREFs
    and its kernel the direct sum of theirs."""
    order = np.argsort(label[col], kind="stable")
    blocks, bounds = np.unique(label[col[order]], return_index=True)
    bounds = np.r_[bounds, order.size]
    out = [(np.zeros(0, dtype=np.int64),) * 2
           + (np.zeros(0, dtype=field.dtype),)]
    taken = 0
    for b, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
        u = np.flatnonzero(label == b)
        t = order[lo:hi]
        rows, at = np.unique(row[t], return_inverse=True)
        block = np.zeros((rows.size, u.size), dtype=field.dtype)
        block[at, np.searchsorted(u, col[t])] = vals[t]
        elim = Eliminator(field, u.size)
        elim.add_rows(block)
        got = take(elim)
        k, c = np.nonzero(got)
        out.append((taken + k, u[c], got[k, c]))
        taken += len(got)
    return tuple(np.concatenate(x) for x in zip(*out))


def _components(eq, col, nu):
    """Block label of each unknown: the least unknown of its connected
    component in the bipartite graph with an edge (eq[t], col[t]) per
    nonzero cell.  Each round gives every equation the least label of
    its unknowns, hands that back to them, and then replaces each label
    by the label of its label; labels only fall, and the loop stops
    when a round changes none."""
    label = np.arange(nu)
    low = np.empty(eq.size and eq.max() + 1, dtype=np.int64)
    while True:
        low.fill(nu)
        np.minimum.at(low, eq, label[col])
        new = label.copy()
        np.minimum.at(new, col, low[eq])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def expand_runs(starts, counts):
    """Index pairs (t, starts[t] + s) for every t and s < counts[t], as
    two arrays, in t order."""
    t = np.repeat(np.arange(counts.size), counts)
    offset = starts - (np.cumsum(counts) - counts)
    return t, np.arange(t.size) + np.repeat(offset, counts)


def _match(probe, index):
    """The pairs (s, t) with probe[s] == index[t], as two arrays."""
    order = np.argsort(index, kind="stable")
    ranked = index[order]
    lo = np.searchsorted(ranked, probe, "left")
    s, t = expand_runs(lo, np.searchsorted(ranked, probe, "right") - lo)
    return s, order[t]


def _entries(field: FieldSpec, arr):
    """The index arrays and the values of the nonzero entries of arr,
    reduced."""
    arr = amod(field, arr)
    where = np.nonzero(arr)
    return (*where, arr[where])


def _chain(*stacks):
    """One stack of maps from several.  A stack is (parities, entries):
    the parities of its maps and their nonzero entries (q, r, c, M_q[r,
    c]); the maps of a stack follow those of the stacks before it."""
    at = np.cumsum([0] + [len(par) for par, _ in stacks])
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    parts += [(e[0] + k, *e[1:]) for k, (_, e) in zip(at, stacks)]
    return (np.concatenate([[], *(par for par, _ in stacks)]).astype(int),
            tuple(np.concatenate(x) for x in zip(*parts)))


def _map_stack(field: FieldSpec, maps):
    """A list of LinearMaps as a stack (see _chain)."""
    return _chain(*[([d.parity], _entries(field, d.matrix[None]))
                    for d in maps])


def _pair_witness(labels, i: int, j: int):
    return {"pair": [i, j], "labels": [labels[i], labels[j]]}


def _first_asymmetric_pair(a: SuperAlgebra, sign: float):
    """First (i, j) in lexicographic order with e_i e_j different from
    sign (-1)^(|i||j|) e_j e_i, as a witness dict, or None."""
    n = a.n
    i, j, k, c = a.coo()
    s = 1.0 - 2.0 * (a.parities[i] * a.parities[j])
    key = _first_difference(a.field, ((i * n + j) * n + k, c),
                            ((j * n + i) * n + k, sign * s * c))
    if key is None:
        return None
    return _pair_witness(a.labels, *divmod(key // n, n))


def check_supercommutative(a: SuperAlgebra) -> Verdict:
    """e_i e_j = (-1)^(|i||j|) e_j e_i on all basis pairs."""
    w = _first_asymmetric_pair(a, 1.0)
    return Verdict(w is None, w)


def _sorted_terms(n, x, y, z, rest, size, own, mir):
    """Keys ((a*n + b)*n + c)*size + rest and values of the terms of a
    cyclic sum at its sorted triples a <= b <= c.  Term t comes from a
    row (x, y)[t], x <= y, of a table joined with its mirror (see
    _pairs_by_output), a third index z[t] and a coordinate rest[t] <
    size: own[t] is a term of the sum at (x, y, z) and its rotations,
    and mir[t] one at (y, x, z) and its rotations.  Each is keyed at every rotation that is sorted: own
    at (x, y, z) when z >= y and at (z, x, y) when z <= x, mir at
    (x, z, y) when x <= z <= y.  So a row and a third index key 1 + [z
    = x] + [z = y] terms; a row x = y has mir = own, and keys three at
    z = x."""
    keys, vals = [], []
    for a, b, c, v, keep in ((x, y, z, own, z >= y),
                             (z, x, y, own, z <= x),
                             (x, z, y, mir, (x <= z) & (z <= y))):
        keys.append(((a[keep] * n + b[keep]) * n + c[keep]) * size
                    + rest[keep])
        vals.append(v[keep])
    return np.concatenate(keys), np.concatenate(vals)


def _offsets(k, n):
    """off[u] to off[u+1] - 1 are the positions of u in the sorted k."""
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(k, minlength=n), out=off[1:])
    return off


def _by_output(a: SuperAlgebra):
    """coo() sorted by the output index k, and the offsets off of its
    runs: the constants with k = u are rows off[u] to off[u+1] - 1."""
    i, j, k, c = a.coo()
    order = np.argsort(k, kind="stable")
    return (i[order], j[order], k[order], c[order]), _offsets(k, a.n)


def _pairs_by_output(a: SuperAlgebra):
    """The table joined with its mirror: one row (x, y, m, own, mir) for
    each x <= y and m with T[x,y,m] or T[y,x,m] nonzero, own = T[x,y,m]
    and mir = T[y,x,m], sorted by the output index m, with the offsets
    of its runs as in _by_output.  The cyclic sums take their left
    factors from it, so a product and its mirror come from one row."""
    n = a.n
    i, j, k, c = a.coo()
    uniq, inv = np.unique((k * n + np.minimum(i, j)) * n + np.maximum(i, j),
                          return_inverse=True)
    own = np.zeros(uniq.size, dtype=c.dtype)
    mir = np.zeros(uniq.size, dtype=c.dtype)
    own[inv[i <= j]] = c[i <= j]
    mir[inv[i >= j]] = c[i >= j]
    m, xy = np.divmod(uniq, n * n)
    return (*np.divmod(xy, n), m, own, mir), _offsets(m, n)


def _pair_terms(pairs, hoff, n):
    """made[m*n + z]: the terms that the pair rows (x, y, m) with output
    m key with a third index z, 1 + [z = x] + [z = y] each
    (_sorted_terms): their number, plus a bincount of the ties."""
    x, y, m = pairs[:3]
    ties = np.bincount(np.concatenate([m * n + x, m * n + y]),
                       minlength=n * n)
    return ties + np.repeat(np.diff(hoff), n)


def _ranges(weights, budget):
    """Consecutive ranges [q0, q1) covering the indices of weights, each
    of total weight at most budget unless it holds a single index."""
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    q0 = 0
    while q0 < weights.size:
        q1 = int(np.searchsorted(cum, cum[q0] + budget, "right")) - 1
        yield q0, max(q1, q0 + 1)
        q0 = max(q1, q0 + 1)


def _cyclic_verdict(a: SuperAlgebra, join, extra=None, budget=TERM_BUDGET):
    """The verdict on a cyclic sum over the sorted triples of a, built by
    join one range of the output coordinate q at a time.

    join(a, budget) returns weights, size and terms: weights[q] is the
    number of terms that a range makes at q (for the Jordan sum, the
    terms of its first join), and terms(q0, q1) yields the keys and
    values (_sorted_terms, with rest < size) of the terms with q in [q0,
    q1), in batches of at most budget terms or a single q.  The ranges
    are cut from weights so that each holds at most budget terms, or a
    single q.  A key carries its q, so each batch is summed whole by
    sum_per_key and its 2^52 guard stays exact per key.  The witness is
    the least failing sorted triple over all batches, the first in
    lexicographic order.  A join builds each batch in a function of its
    own, so that no temporary of it is alive while the batch is
    summed."""
    weights, size, terms = join(a, budget)
    best = None
    for q0, q1 in _ranges(weights, budget):
        for keys, vals in terms(q0, q1):
            key = _first_nonzero_key(a.field, keys, vals)
            del keys, vals  # freed before the next batch is built
            if key is not None and (best is None or key < best):
                best = key
    if best is None:
        return Verdict(True, None)
    xy, z = divmod(best // size, a.n)
    bad = [*divmod(xy, a.n), z]
    return Verdict(False, {"triple": bad, **(extra or {}),
                           "labels": [a.labels[m] for m in bad]})


def _jordan_join(a: SuperAlgebra, budget):
    """The Jordan operator sum as _cyclic_verdict takes it; see
    check_jordan_super.  A range takes the right factors T[c,u,q] of the
    first join with q in it, one slice of the table, so the entries
    E(x, m, w, q) it sums are complete, and so are the keys of the
    second join.  weights[q] is the number of terms of the first join at
    q, two per product.  The second join meets each entry E(x, m, w, q)
    with the pair rows (a, b, m) and makes made[m*n + x] terms
    (_pair_terms), so its batches are cut from these exact counts."""
    n, par = a.n, a.parities
    (i, j, k, c), off = _by_output(a)
    pairs, hoff = _pairs_by_output(a)
    x, y, _, own, mir = pairs
    cnt, hcnt = np.diff(off), np.diff(hoff)
    per = _pair_terms(pairs, hoff, n)

    def entries(q0, q1):
        lo = off[q0]
        u = j[lo:off[q1]]
        t, left = expand_runs(off[u], cnt[u])
        right = lo + t
        b, cc, wq = i[left], i[right], j[left] * n + k[right]
        v = c[left] * c[right]
        return sum_per_key(a.field, np.concatenate(
            [(cc * n + b) * n * n + wq, (b * n + cc) * n * n + wq]),
            np.concatenate([v, (2.0 * (par[b] * par[cc]) - 1.0) * v]))

    def batch(ekey, e, ex, em, sel):
        s, t = expand_runs(hoff[em[sel]], hcnt[em[sel]])
        s = sel[s]
        ha, hb, z = x[t], y[t], ex[s]
        return _sorted_terms(
            n, ha, hb, z, ekey[s] % (n * n), n * n,
            own[t] * e[s] * (1.0 - 2.0 * (par[z] * par[hb])),
            mir[t] * e[s] * (1.0 - 2.0 * (par[z] * par[ha])))

    def terms(q0, q1):
        ekey, e = entries(q0, q1)
        ex, em = np.divmod(ekey // (n * n), n)
        eq = ekey % n
        made = np.bincount(eq - q0, weights=per[em * n + ex],
                           minlength=q1 - q0)
        for r0, r1 in _ranges(made, budget):
            yield batch(ekey, e, ex, em,
                        np.flatnonzero((eq >= q0 + r0) & (eq < q0 + r1)))
    return 2 * np.bincount(k, weights=cnt[j], minlength=n), n * n, terms


def check_jordan_super(a: SuperAlgebra) -> Verdict:
    """Jordan superidentity, as the operator identity

        S(x,y,z) = (-1)^(|x||z|) D(x, y z) + (-1)^(|y||x|) D(y, z x)
            + (-1)^(|z||y|) D(z, x y) = 0

    on all homogeneous basis triples (x, y, z), where D(u, v) is the
    supercommutator of left multiplications, and supercommutativity.

    Two chained joins.  A product T[b,w,u] T[c,u,q] of two constants,
    joined on u, is the coefficient of e_q in e_c (e_b e_w).  As D(e_x,
    e_m) e_w = e_x (e_m e_w) - (-1)^(|x||m|) e_m (e_x e_w), it is a term
    of D(e_c, e_b) e_w as it stands, and of D(e_b, e_c) e_w with the
    sign -(-1)^(|b||c|); summed per key and reduced, these give the
    entries E(x, m, w, q) of D(e_x, e_m) e_w.  Then each constant
    T[a,b,m] times an entry E(c, m, w, q) is a term of D(e_c, e_a e_b)
    e_w, which enters S at (a, b, c) and its rotations with the sign
    (-1)^(|c||b|).  The second join takes the pair rows a <= b
    (_pairs_by_output), so T[b,a,m] E(c, m, w, q) is made with it, and
    keys S only at sorted triples (_sorted_terms).  The joins run in
    ranges of the output coordinate (_cyclic_verdict).

    S is cyclic in (x, y, z), and on a supercommutative table S(y, x, z)
    = (-1)^(|x||y| + |y||z| + |x||z|) S(x, y, z), so it vanishes iff it
    vanishes on sorted triples, and its least failing triple is sorted.
    The witness is that triple; a table whose sorted triples all pass
    but which is not supercommutative fails at its first asymmetric
    pair, marked "identity": "supercommutativity"."""
    v = _cyclic_verdict(a, _jordan_join)
    if v:
        w = _first_asymmetric_pair(a, 1.0)
        if w is not None:
            w["identity"] = "supercommutativity"
            return Verdict(False, w)
    return v


def _jacobi_join(lie, budget):
    """The super Jacobi sum as _cyclic_verdict takes it; see
    check_super_lie.  A range takes the right factors T[m,z,q] with q in
    it, one slice of the table, and their left partners, the pair rows
    (x, y, m) with x <= y (_pairs_by_output), one run each; weights[q]
    is the exact number of terms at q, made[m*n + z] per right factor
    T[m,z,q] (_pair_terms)."""
    n, par = lie.n, lie.parities
    (i, j, k, c), off = _by_output(lie)
    pairs, hoff = _pairs_by_output(lie)
    x, y, _, own, mir = pairs
    hcnt = np.diff(hoff)
    weights = np.bincount(k, weights=_pair_terms(pairs, hoff, n)[i * n + j],
                          minlength=n)

    def batch(q0, q1):
        lo = off[q0]
        m = i[lo:off[q1]]
        t, left = expand_runs(hoff[m], hcnt[m])
        right = lo + t
        lx, ly, z, v = x[left], y[left], j[right], c[right]
        return _sorted_terms(
            n, lx, ly, z, k[right], n,
            own[left] * v * (1.0 - 2.0 * (par[lx] * par[z])),
            mir[left] * v * (1.0 - 2.0 * (par[ly] * par[z])))

    def terms(q0, q1):
        yield batch(q0, q1)
    return weights, n, terms


def check_super_lie(lie) -> Verdict:
    """Super anticommutativity and the graded Jacobi identity

        (-1)^(|a||c|) [[a,b],c] + (-1)^(|b||a|) [[b,c],a]
            + (-1)^(|c||b|) [[c,a],b] = 0

    on all basis triples.  Anticommutativity fails at the first pair
    (a, b) where [a,b] + (-1)^(|a||b|) [b,a] is nonzero.  Every product
    T[x,y,m] T[m,z,q] of two constants, one join on m, is a term of
    J1[x,y,z,q] = [[e_x,e_y],e_z]_q.  The Jacobi sum at (a, b, c) is J1
    at (a, b, c), (b, c, a) and (c, a, b), each signed by (-1)^(|x||z|)
    of its own (x, z), so each product, signed once, is a term of the
    sum at (x, y, z) and its rotations.  Given anticommutativity the sum
    is super-alternating: a swap of two arguments multiplies it by a
    sign fixed by their parities.  So it vanishes iff it vanishes on
    sorted triples, and its least failing triple is sorted.  The left
    factors are the pair rows x <= y, each with its mirror T[y,x,m]
    (_pairs_by_output), and only sorted triples are keyed
    (_sorted_terms): half the products of the whole join.  The join runs
    in ranges of the output coordinate (_cyclic_verdict), and the
    witness is the first failing triple in lexicographic order."""
    w = _first_asymmetric_pair(lie, -1.0)
    if w is not None:
        w["identity"] = "anticommutativity"
        return Verdict(False, w)
    return _cyclic_verdict(lie, _jacobi_join, {"identity": "jacobi"})


def leibniz_violation(a: SuperAlgebra, parities, entries):
    """The first (s, i, j) in lexicographic order where map s of a stack
    (see _chain) breaks the super Leibniz rule on (e_i, e_j), or None.

    For d = d_s, coordinate r of d(e_i e_j) - d(e_i) e_j
    - (-1)^(|d||i|) e_i d(e_j) has the terms T[i,j,k] d[r,k],
    -d[m,i] T[m,j,r] and -(-1)^(|d||i|) T[i,m,r] d[m,j].  Each family is
    one join of the nonzero constants with the nonzero entries (s, row,
    column) of the maps, and every term is keyed to (s, i, j, r), so
    one pass checks the whole stack.

    On a table with a mirror_sign e, the rule at (j, i) is e (-1)^(|i||j|)
    times the rule at (i, j) for every map whose entries keep its parity,
    so for such a stack only the pairs i <= j are keyed: a failing (s, i,
    j) with i > j has the failing mirror (s, j, i) before it, and the
    witness is the same."""
    n = a.n
    i, j, k, c = a.coo()
    ds, dr, dc, dv = entries
    odd = np.asarray(parities, dtype=np.int64)[ds]
    half = a.mirror_sign is not None and np.array_equal(
        a.parities[dr], a.parities[dc] ^ odd)

    def made(t, e, x, y):
        """The pairs (t, e) of a family whose key (x, y) is made."""
        keep = x <= y if half else slice(None)
        return t[keep], e[keep]

    t, e = _match(k, dc)                  # d(e_i e_j)
    t, e = made(t, e, i[t], j[t])
    keys = [((ds[e] * n + i[t]) * n + j[t]) * n + dr[e]]
    vals = [c[t] * dv[e]]
    e, t = _match(dr, i)                  # d(e_i) e_j
    t, e = made(t, e, dc[e], j[t])
    keys.append(((ds[e] * n + dc[e]) * n + j[t]) * n + k[t])
    vals.append(-dv[e] * c[t])
    t, e = _match(j, dr)                  # e_i d(e_j)
    t, e = made(t, e, i[t], dc[e])
    keys.append(((ds[e] * n + i[t]) * n + dc[e]) * n + k[t])
    vals.append((2.0 * (odd[e] * a.parities[i[t]]) - 1.0) * c[t] * dv[e])
    key = _first_nonzero_key(a.field, np.concatenate(keys),
                             np.concatenate(vals))
    if key is None:
        return None
    s, ij = divmod(key // n, n * n)
    return (s, *divmod(ij, n))


def is_derivation(a: SuperAlgebra, d: LinearMap) -> Verdict:
    """Super Leibniz rule d(xy) = d(x)y + (-1)^(|d||x|) x d(y) on all
    basis pairs; see leibniz_violation."""
    bad = leibniz_violation(a, *_map_stack(a.field, [d]))
    if bad is None:
        return Verdict(True, None)
    return Verdict(False, _pair_witness(a.labels, *bad[1:]))


def is_homomorphism(fmap: LinearMap) -> Verdict:
    """f(xy) = f(x)f(y) on all basis pairs of the source.

    Both sides at the pair (i, j), coordinate c, are summed per key
    (i, j, c) and reduced, then compared.  f(e_i e_j) joins the source
    constants (i, j, k) with the entries (c, k) of the matrix F.
    f(e_i) f(e_j) takes two joins: the entries (a, i) of F with the
    target constants (a, b, c) give G[i,b,c], the coefficient of e_c in
    f(e_i) e_b, reduced before it meets the entries (b, j) of F.  So
    every summed value is a product of two reduced elements."""
    return _homomorphism(fmap, *_entries(fmap.field, fmap.matrix))


def _homomorphism(fmap: LinearMap, fr, fc, fv) -> Verdict:
    """is_homomorphism on the nonzero entries F[fr, fc] = fv of fmap."""
    f = fmap.field
    ns, nt = fmap.source.n, fmap.target.n
    i, j, k, c = fmap.source.coo()
    t, e = _match(k, fc)
    lhs = sum_per_key(f, (i[t] * ns + j[t]) * nt + fr[e], c[t] * fv[e])
    i, j, k, c = fmap.target.coo()
    e, t = _match(fr, i)
    gkey, g = sum_per_key(f, (fc[e] * nt + j[t]) * nt + k[t], fv[e] * c[t])
    gi, gb = divmod(gkey // nt, nt)
    t, e = _match(gb, fr)
    rhs = sum_per_key(f, (gi[t] * ns + fc[e]) * nt + gkey[t] % nt,
                      g[t] * fv[e])
    keys, at = np.unique(np.concatenate([lhs[0], rhs[0]]),
                         return_inverse=True)
    sides = np.zeros((2, keys.size), dtype=f.dtype)
    sides[0, at[:lhs[0].size]] = lhs[1]
    sides[1, at[lhs[0].size:]] = rhs[1]
    bad = np.flatnonzero(sides[0] != sides[1])
    if not bad.size:
        return Verdict(True, None)
    return Verdict(False, _pair_witness(fmap.source.labels,
                                        *divmod(int(keys[bad[0]]) // nt, ns)))


def is_isomorphism(fmap: LinearMap) -> Verdict:
    """A bijective homomorphism: is_homomorphism, whose witness comes
    back unchanged, then a square matrix whose nonzero entries, as a
    sparse system with keys row n + column, have no kernel."""
    n = fmap.source.n
    fr, fc, fv = _entries(fmap.field, fmap.matrix)
    h = _homomorphism(fmap, fr, fc, fv)
    if h and (n != fmap.target.n
              or _sparse_kernel(fmap.field, fr * n + fc, fv, n)[0].size):
        return Verdict(False, {"reason": "not bijective"})
    return h


def is_automorphism(fmap: LinearMap) -> Verdict:
    """Bijective unital homomorphism of a superalgebra to itself."""
    src, tgt = fmap.source, fmap.target
    if src.n != tgt.n:
        return Verdict(False, {"reason": "dimension mismatch"})
    h = is_isomorphism(fmap)
    if not h:
        return h
    if src.unit_index is not None:
        img = fmap(src.basis_vector(src.unit_index))
        if tgt.unit_index is None or \
                not iszero(img - tgt.basis_vector(tgt.unit_index)):
            return Verdict(False, {"reason": "unit not preserved"})
    return Verdict(True, None)


def _kernel_of_cells(field: FieldSpec, keys, vals, ncols: int) -> Subspace:
    """The kernel of a sparse system in ncols unknowns, as a canonical
    Subspace: the terms vals at keys e ncols + u, cell u of equation e,
    are summed by sum_per_key, and _sparse_kernel solves the system."""
    k, u, x = _sparse_kernel(field, *sum_per_key(field, keys, vals), ncols)
    basis = np.zeros((k.max(initial=-1) + 1, ncols), dtype=field.dtype)
    basis[k, u] = x
    return Subspace(field, ncols, rref(field, basis)[0], _canonical=True)


def annihilator(a: SuperAlgebra, vectors) -> Subspace:
    """{z : z s = 0 for every s in vectors} as a Subspace of the carrier.
    Coordinate r of e_c s is sum_j s_j T[c,j,r]: one join of the nonzero
    entries of the stacked vectors with the constants on j, keyed to the
    equation (s, r) and the unknown c."""
    n = a.n
    sv, sj, s = _entries(a.field, asfield(a.field, vectors).reshape(-1, n))
    i, j, k, c = a.coo()
    t, e = _match(j, sj)
    return _kernel_of_cells(a.field, (sv[e] * n + k[t]) * n + i[t],
                            s[e] * c[t], n)


def center_even(a: SuperAlgebra) -> Subspace:
    """Associative-and-commutative center of the even part, as a
    Subspace of the even carrier: the z = sum_c z_c e_c with
    (z e_a) e_b = z (e_a e_b) and z e_a = e_a z for all even a, b.

    Both are joins over the even constants of coo(), keyed to an
    equation and the unknown c.  The associator rows (a, b, r) take
    T[c,a,m] T[m,b,r] and -T[a,b,m] T[c,m,r], each one join on m, and
    the commutator rows (a, r) take T[a,c,r] - T[c,a,r]."""
    n0 = a.dim_even
    i, j, k, c = a.coo()
    even = (i < n0) & (j < n0)
    i, j, k, c = i[even], j[even], k[even], c[even]
    left, right = _match(k, i)            # (e_c e_a) e_b
    keys = [((j[left] * n0 + j[right]) * n0 + k[right]) * n0 + i[left]]
    vals = [c[left] * c[right]]
    left, right = _match(k, j)            # e_c (e_a e_b)
    keys.append(((i[left] * n0 + j[left]) * n0 + k[right]) * n0 + i[right])
    vals.append(-c[left] * c[right])
    keys += [(n0 ** 3 + i * n0 + k) * n0 + j,     # e_a e_c - e_c e_a
             (n0 ** 3 + j * n0 + k) * n0 + i]
    vals += [c, -c]
    return _kernel_of_cells(a.field, np.concatenate(keys),
                            np.concatenate(vals), n0)
