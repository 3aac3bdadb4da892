"""Lie layer: cyclic matrix model, tensor and 3-graded constructions,
the split-triple bridge between them, and the realization of the big
derivation algebra over the rank-2 double."""

import numpy as np
import pytest

from ckder import (FieldSpec, DerivationSpace, LinearMap, amod, build_s4,
                   cheng_kac, check_3grading, check_super_lie,
                   coordinate_algebra, derivation_algebra, find_sl2_triple,
                   grade_derivations, inner_derivation,
                   inner_derivation_algebra, inverse, kantor_double,
                   lie_from_derivations, phi_iso, phi_star, der_as_tkk,
                   sl2_identification, so3, solve_right, stable_der_double,
                   super_commutator, tits_construction, tkk_3graded,
                   truncated_poly)
from ckder import tkk
from ckder.battery import RunContext
from ckder.linalg import mm
from ckder.superalg import _entries
from ckder.tkk import LieSuperAlgebra
from oracles import tensor
from test_linalg import oracle_rref
from test_sparse_checks import flat_span
from test_symmetry import apply_maps

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, ext=True)


@pytest.fixture(scope="module")
def kd3():
    return kantor_double(truncated_poly(F3))


@pytest.fixture(scope="module")
def inder3(kd3):
    return inner_derivation_algebra(kd3.alg)


@pytest.fixture(scope="module")
def der3(kd3):
    return derivation_algebra(kd3.alg)


@pytest.fixture(scope="module")
def tkk3(kd3, inder3):
    return tkk_3graded(kd3.alg, inder3)


@pytest.fixture(scope="module")
def kd5():
    return kantor_double(truncated_poly(F5))


@pytest.fixture(scope="module")
def inder5(kd5):
    return inner_derivation_algebra(kd5.alg)


def basis_vec(lie, i):
    v = np.zeros(lie.n, dtype=np.complex128)
    v[i] = 1
    return v


def test_cyclic_matrix_model():
    """The rank-3 skew model: cyclic brackets, and the trace form is
    -2 times the identity after reduction."""
    lie = so3(F5)
    assert lie.labels == ["E1", "E2", "E3"]
    assert (lie.dim_even, lie.dim_odd) == (3, 0)
    def reduced(key):
        return [(k, F5.reduce(c)) for k, c in lie.products[key]]

    assert reduced((0, 1)) == [(2, 1)]
    assert reduced((1, 0)) == [(2, 4)]
    assert reduced((1, 2)) == [(0, 1)]
    assert reduced((2, 0)) == [(1, 1)]
    assert (0, 0) not in lie.products
    assert np.array_equal(lie.trace_form, amod(F5, -2 * np.eye(3)))
    # the attached matrices really are the cross-product generators
    for i, m in enumerate(lie.matrices):
        e = np.zeros(3)
        e[i] = 1
        for j in range(3):
            f = np.zeros(3)
            f[j] = 1
            assert np.array_equal(m @ f, np.cross(e, f))
    ext = so3(F9)
    assert np.array_equal(ext.trace_form, amod(F9, -2 * np.eye(3)))


def test_bracket_table_json_round_trip(tkk3):
    blob = tkk3.to_json()
    assert "brackets" in blob and "products" not in blob
    assert "unit" not in blob and "fine_label" not in blob
    assert blob["grading"] == tkk3.grading
    back = LieSuperAlgebra.from_json(blob)
    assert back.labels == tkk3.labels
    assert back.grading == tkk3.grading
    assert set(back.products) == set(tkk3.products)
    for key, terms in tkk3.products.items():
        got = [(k, F3.reduce(c)) for k, c in back.products[key]]
        want = [(k, F3.reduce(c)) for k, c in terms]
        assert got == want


def test_double_tensor_construction_is_lie(kd3, der3, inder3):
    """The tensor construction over the double, against both the full
    derivation algebra (odd excess included) and the stable part."""
    full = tits_construction(kd3.alg, der3, inder=inder3)
    assert (full.dim_even, full.dim_odd) == (12, 13)
    assert check_super_lie(full)
    bar = stable_der_double(kd3, der3, inder3)
    stable = tits_construction(kd3.alg, bar, inder=inder3)
    assert (stable.dim_even, stable.dim_odd) == (12, 12)
    assert check_super_lie(stable)
    # index helpers agree with the label layout
    assert stable.labels[stable.idx_copy(1, 0)] == "E2*t^0"
    assert stable.labels[stable.idx_der(0, 0)] == "d0"


def test_tensor_construction_needs_inner_derivations(kd3):
    empty = DerivationSpace(kd3.alg, [], [])
    with pytest.raises(ValueError, match="misses inner"):
        tits_construction(kd3.alg, empty)
    with pytest.raises(ValueError, match="escapes"):
        tkk_3graded(kd3.alg, empty)


def test_three_graded_refuses_an_overlapping_inner_block(kd3):
    """An inner block holding the identity, which is the left
    multiplication by the unit, overlaps the multiplication block."""
    a = kd3.alg
    ident = LinearMap(a, a, 0, np.eye(a.n))
    ds = DerivationSpace(a, [ident], [], validate=False)
    with pytest.raises(ValueError, match="overlap"):
        tkk_3graded(a, ds)


def test_three_graded_double(kd3, tkk3):
    assert (tkk3.dim_even, tkk3.dim_odd) == (12, 12)
    assert check_super_lie(tkk3)
    assert check_3grading(tkk3)
    tags = tkk3.grading
    assert sum(1 for g in tags if g == 1) == 6
    assert sum(1 for g in tags if g == -1) == 6
    assert sum(1 for g in tags if g == 0) == 12
    u = kd3.alg.unit_index
    # bracketing the two shifted copies of the unit recovers the
    # multiplication operator of the unit
    got = tkk3.multiply(basis_vec(tkk3, tkk3.idx_copy(0, u)),
                        basis_vec(tkk3, tkk3.idx_copy(1, u)))
    assert np.array_equal(got, basis_vec(tkk3, tkk3.idx_copy(2, u)))
    # and that operator fixes every plus vector
    for a in range(kd3.alg.n):
        got = tkk3.multiply(basis_vec(tkk3, tkk3.idx_copy(2, u)),
                            basis_vec(tkk3, tkk3.idx_copy(0, a)))
        assert np.array_equal(got, basis_vec(tkk3, tkk3.idx_copy(0, a)))


def test_three_graded_big_algebra():
    ck = cheng_kac(truncated_poly(F3))
    lie = tkk_3graded(ck.alg)
    assert lie.n == 96
    assert (lie.dim_even, lie.dim_odd) == (48, 48)
    assert check_super_lie(lie)
    assert check_3grading(lie)
    tags = lie.grading
    assert sum(1 for g in tags if g == 1) == 24
    assert sum(1 for g in tags if g == -1) == 24
    assert sum(1 for g in tags if g == 0) == 48


def _perturbed(lie, i, j, both_orders):
    """lie with one constant of [e_i, e_j] raised by one, and [e_j, e_i]
    rewritten to match by super antisymmetry when both_orders is set."""
    brackets = {key: list(terms) for key, terms in lie.products.items()}
    k, c = brackets[(i, j)][0]
    brackets[(i, j)][0] = (k, c + 1)
    if both_orders:
        sign = -1 if lie.parity(i) and lie.parity(j) else 1
        brackets[(j, i)] = [(k, -sign * c) for k, c in brackets[(i, j)]]
    terms = [(a, b, k, c) for (a, b), ts in brackets.items() for k, c in ts]
    return LieSuperAlgebra(lie.field, lie.dim_even, lie.dim_odd, lie.labels,
                           tuple(zip(*terms)), lie.grading)


def test_super_lie_check_catches_a_perturbed_constant(kd3, tkk3):
    u = kd3.alg.unit_index
    i, j = tkk3.idx_copy(0, u), tkk3.idx_copy(1, u)
    v = check_super_lie(_perturbed(tkk3, i, j, both_orders=True))
    assert not v
    assert v.witness["identity"] == "jacobi"
    assert len(v.witness["triple"]) == 3
    v = check_super_lie(_perturbed(tkk3, i, j, both_orders=False))
    assert not v
    assert v.witness["identity"] == "anticommutativity"
    assert v.witness["pair"] == [i, j]


def _cross(i, j):
    """E_i x E_j over the cyclic basis, as (k, sign), or None."""
    e = np.eye(3, dtype=int)
    v = np.cross(e[i], e[j])
    return None if not v.any() else (int(np.flatnonzero(v)[0]),
                                     int(v.sum()))


# [(i, a), (j, b)] = s (k, ab) + c D(a, b), keyed by the copy pair (i, j)
# and valued ((k, s) or None, c), read off the defining formulas
TITS_FORMULAS = {(i, j): (_cross(i, j), -1 if i == j else 0)
                 for i in range(3) for j in range(3)}
PLUS, MINUS, LMULT = 0, 1, 2
TKK_FORMULAS = {
    (PLUS, MINUS): ((LMULT, 1), 1), (MINUS, PLUS): ((LMULT, -1), 1),
    (LMULT, PLUS): ((PLUS, 1), 0), (LMULT, MINUS): ((MINUS, -1), 0),
    (PLUS, LMULT): ((PLUS, -1), 0), (MINUS, LMULT): ((MINUS, 1), 0),
    (LMULT, LMULT): (None, 1),
    (PLUS, PLUS): (None, 0), (MINUS, MINUS): (None, 0),
}


def _assert_brackets_follow(lie, ds, formulas):
    """Every bracket of a three-copy construction, entry by entry,
    against the formulas evaluated with the dense primitives."""
    jalg, f = lie.jalg, lie.field
    n = jalg.n
    dbasis = ds.even_basis + ds.odd_basis
    spans = [flat_span(ds.algebra, ds.even_basis),
             flat_span(ds.algebra, ds.odd_basis)]

    def copy_vec(i, x):
        v = np.zeros(lie.n, dtype=np.complex128)
        for a in range(n):
            v[lie.idx_copy(i, a)] = x[a]
        return v

    def der_vec(d):
        co = spans[d.parity].coords_of(d.flatten())
        assert co is not None
        v = np.zeros(lie.n, dtype=np.complex128)
        for t, c in enumerate(co):
            v[lie.idx_der(d.parity, t)] = c
        return v

    elems = [(lie.idx_copy(i, a), ("copy", i, a))
             for i in range(3) for a in range(n)]
    elems += [(lie.idx_der(d.parity, t - d.parity * len(ds.even_basis)),
               ("der", d)) for t, d in enumerate(dbasis)]
    assert sorted(x for x, _ in elems) == list(range(lie.n))
    for x, ex in elems:
        for y, ey in elems:
            if ex[0] == "copy" and ey[0] == "copy":
                (_, i, a), (_, j, b) = ex, ey
                prod, c = formulas[(i, j)]
                ea, eb = jalg.basis_vector(a), jalg.basis_vector(b)
                want = c * der_vec(inner_derivation(jalg, ea, eb))
                if prod is not None:
                    k, s = prod
                    want = want + s * copy_vec(k, jalg.multiply(ea, eb))
            elif ex[0] == "der" and ey[0] == "copy":
                d, (_, i, a) = ex[1], ey
                want = copy_vec(i, d(jalg.basis_vector(a)))
            elif ex[0] == "copy":
                (_, i, a), d = ex, ey[1]
                sign = -1 if d.parity and jalg.parity(a) else 1
                want = -sign * copy_vec(i, d(jalg.basis_vector(a)))
            else:
                want = der_vec(super_commutator(ex[1], ey[1]))
            got = lie.multiply(basis_vec(lie, x), basis_vec(lie, y))
            assert np.array_equal(got, amod(f, want)), \
                (lie.labels[x], lie.labels[y])


@pytest.mark.parametrize("field", [F3, F9], ids=str)
def test_brackets_follow_the_defining_formulas(field):
    """Both constructions over the double, every bracket checked: the
    tensor one over the full derivation algebra (odd excess included),
    the 3-graded one over the inner derivations."""
    kd = kantor_double(truncated_poly(field))
    der = derivation_algebra(kd.alg)
    inder = inner_derivation_algebra(kd.alg)
    _assert_brackets_follow(tits_construction(kd.alg, der, inder=inder),
                            der, TITS_FORMULAS)
    _assert_brackets_follow(tkk_3graded(kd.alg, inder), inder,
                            TKK_FORMULAS)


def test_grading_check_flags_violations(tkk3):
    broken = LieSuperAlgebra(F3, tkk3.dim_even, tkk3.dim_odd, tkk3.labels,
                             tkk3.coo(), grading=None)
    assert not check_3grading(broken)
    tags = list(tkk3.grading)
    tags[tkk3.idx_copy(0, 0)] = -1
    broken = LieSuperAlgebra(F3, tkk3.dim_even, tkk3.dim_odd, tkk3.labels,
                             tkk3.coo(), grading=tags)
    v = check_3grading(broken)
    assert not v
    assert "pair" in v.witness


def test_split_triple_fixed_coordinates():
    """The split triple in the cyclic basis, with its defining
    relations rechecked through the structure tensor."""
    frozen = {
        5: {"h": [0, 0, 4], "e": [3, 1, 0], "f": [3, 4, 0]},
    }
    for p, want in frozen.items():
        f = FieldSpec(p)
        triple = find_sl2_triple(f)
        for key, coords in want.items():
            assert np.array_equal(triple[key], np.array(coords)), (p, key)
    u = F9.sqrt_minus_one()
    triple = find_sl2_triple(F9)
    assert np.array_equal(triple["h"], np.array([0, 0, 2 * u]))
    assert np.array_equal(triple["e"], np.array([2 * u, 1, 0]))
    assert np.array_equal(triple["f"], np.array([2 * u, 2, 0]))
    for f in (F5, F9):
        t = tensor(so3(f))
        triple = find_sl2_triple(f)
        h, e, fv = triple["h"], triple["e"], triple["f"]

        def br(x, y):
            return amod(f, np.einsum("i,j,ijk->k", x, y, t))

        assert np.array_equal(br(h, e), amod(f, 2 * e))
        assert np.array_equal(br(h, fv), amod(f, -2 * fv))
        assert np.array_equal(br(e, fv), h)
    with pytest.raises(ValueError):
        find_sl2_triple(F3)


def test_tensor_to_graded_bridge(kd5, inder5):
    """The two constructions over the double are explicitly isomorphic
    once the tensor side runs over the inner derivations."""
    tits = tits_construction(kd5.alg, inder5, inder=inder5)
    tkk = tkk_3graded(kd5.alg, inder5)
    assert tits.n == tkk.n == 40
    iso = sl2_identification(tits, tkk)
    assert iso.verified
    assert iso.detail["sl2"]["h"] == [[0], [0], [4]]
    # the map carries the derivation block across unchanged
    m = iso.map.matrix
    assert m[tkk.idx_der(0, 0), tits.idx_der(0, 0)] == 1


def test_bridge_rejects_mismatched_inputs(kd3, der3, inder3, tkk3, kd5,
                                          inder5):
    over_full = tits_construction(kd3.alg, der3, inder=inder3)
    with pytest.raises(ValueError, match="inner"):
        sl2_identification(over_full, tkk3)
    with pytest.raises(ValueError, match="different algebras"):
        sl2_identification(tits_construction(kd5.alg, inder5, inder=inder5),
                           tkk3)


def test_derivations_as_abstract_brackets(kd3, inder3):
    lie = lie_from_derivations(inder3)
    assert (lie.dim_even, lie.dim_odd) == (3, 3)
    assert lie.labels == [f"D{k}" for k in range(6)]
    assert check_super_lie(lie)
    assert lie.space is inder3


def test_big_derivations_from_double_tensor():
    """The full derivation algebra of the big algebra is the tensor
    construction over the stable derivations of the double, and the
    inner part matches the construction over the inner ones."""
    f = F9
    dalg = truncated_poly(f)
    ck = cheng_kac(dalg, basis="v")
    kd = kantor_double(dalg)
    act = build_s4(ck)
    der_j = derivation_algebra(ck.alg)
    inder_j = inner_derivation_algebra(ck.alg)
    coord = coordinate_algebra(ck, der_j, act)
    phi = phi_iso(kd, coord)
    transfer = phi_star(ck, kd, coord, phi)
    der_k = derivation_algebra(kd.alg)
    inder_k = inner_derivation_algebra(kd.alg)
    bar_k = stable_der_double(kd, der_k, inder_k)
    full, inner = der_as_tkk(
        ck, kd, act, transfer, der_j, inder_j,
        tits_construction(kd.alg, bar_k, inder=inder_k),
        tits_construction(kd.alg, inder_k, inder=inder_k))
    assert full.verified
    assert inner.verified
    assert full.map.source.n == full.map.target.n == 24
    assert inner.map.source.n == inner.map.target.n == 24


def _der_as_tkk_oracle(ctx):
    """The matrices of the two isomorphisms of der_as_tkk over ctx.sqrt,
    built the dense way: the image of each basis vector of the double by
    coord.as_map, conjugated twice, and one solve_right per basis
    derivation of the double against the transferred [0,0] component."""
    f = ctx.sqrt
    n = ctx.ck(f, "v").alg.n
    kd, coord, phi, transfer = ctx.kd(f), ctx.coord(), ctx.phi(), \
        ctx.transfer()
    g = ctx.act().phi.matrix
    ginv = inverse(f, g)

    def conj(m):
        return mm(f, g, mm(f, m, ginv))

    out = []
    for idspace, jspace in ((ctx.bar_k(f), ctx.der_j(f, "v")),
                            (ctx.inder_k(f), ctx.inder_j(f, "v"))):
        tits = tits_construction(kd.alg, idspace, inder=ctx.inder_k(f))
        comp00 = grade_derivations(jspace).component((0, 0))
        halves = (comp00.even_basis, comp00.odd_basis)
        arows = [np.stack([b.flatten() for b in apply_maps(transfer, half)])
                 for half in halves]
        cols, mats = [], []
        for j in range(kd.alg.n):
            base = coord.as_map(phi.matrix[:, j]).matrix
            first = conj(base)
            cols += [tits.idx_copy(i, j) for i in range(3)]
            mats += [first, conj(first), base]
        for par, basis in enumerate((idspace.even_basis, idspace.odd_basis)):
            for t, b in enumerate(basis):
                c = solve_right(f, arows[par].T, b.flatten())
                assert c is not None
                cols.append(tits.idx_der(par, t))
                mats.append(amod(f, sum(ci * d.matrix for ci, d
                                        in zip(c, halves[par]))))
        q, r, col, x = _entries(f, np.stack(mats))
        co = jspace.coordinates((q * n + col) * n + r, x)
        assert co is not None
        m = np.zeros((jspace.dim, tits.n), dtype=f.dtype)
        m[co[1], np.asarray(cols)[co[0]]] = co[2]
        out.append(m)
    return out


def _der_as_tkk_lies(ctx, monkeypatch):
    """der_as_tkk over ctx.sqrt, checked bitwise against the dense path,
    and the spaces it built a Lie table of."""
    f = ctx.sqrt
    lies = []
    monkeypatch.setattr(tkk, "lie_from_derivations", lambda ds: lies.append(
        ds) or lie_from_derivations(ds))
    isos = der_as_tkk(ctx.ck(f, "v"), ctx.kd(f), ctx.act(), ctx.transfer(),
                      ctx.der_j(f, "v"), ctx.inder_j(f, "v"),
                      ctx.tits_double_stable(f), ctx.tits_double(f))
    for iso, want in zip(isos, _der_as_tkk_oracle(ctx), strict=True):
        assert iso.verified
        assert iso.map.matrix.dtype == want.dtype
        assert iso.map.matrix.tobytes() == want.tobytes()
    return lies


@pytest.mark.parametrize("p", [3, 7], ids=["F9", "F49"])
def test_der_as_tkk_matches_the_dense_path(p, monkeypatch):
    """Both isomorphisms of der_as_tkk, whose tensor block conjugates
    the transfer images as one stack and whose derivation block inverts
    the transfer once, equal the dense path bitwise.  Der(J_v) equals
    Inder(J_v) at p = 3 and 7, and one Lie table serves both."""
    ctx = RunContext(p)
    assert _der_as_tkk_lies(ctx, monkeypatch) == [ctx.der_j(ctx.sqrt, "v")]


def test_der_as_tkk_builds_a_lie_table_per_space_when_they_differ(
        monkeypatch):
    """With the equality of Der(J_v) and Inder(J_v) not seen, each space
    gets its own Lie table, and the isomorphisms are the same maps."""
    ctx = RunContext(3)
    monkeypatch.setattr(DerivationSpace, "equals", lambda *_: False)
    f = ctx.sqrt
    assert _der_as_tkk_lies(ctx, monkeypatch) == [ctx.der_j(f, "v"),
                                                  ctx.inder_j(f, "v")]


def _ints(field, x):
    """A field element as a pair of Python ints (a0, a1), a0 + a1 u."""
    return (round(x.real) % field.p, round(x.imag) % field.p)


def _table_of(field, alg):
    """The structure constants of alg as {(i, j): [(k, c)]}, c an int
    pair."""
    out = {}
    for i, j, k, c in zip(*(x.tolist() for x in alg.coo()[:3]),
                          alg.coo()[3]):
        out.setdefault((i, j), []).append((k, _ints(field, c)))
    return out


def int_homomorphism_and_rank(field, fmap):
    """The first basis pair (i, j) of the source at which fmap(e_i e_j)
    differs from fmap(e_i) fmap(e_j), or None, and the rank of the
    matrix, all in Python ints: an F_p or F_p[u] element is a pair of
    ints with u^2 = -1, and the rank is the integer RREF oracle's."""
    p = field.p

    def mul(x, y):
        return ((x[0] * y[0] - x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    def add_into(acc, k, x):
        y = acc.get(k, (0, 0))
        acc[k] = ((y[0] + x[0]) % p, (y[1] + x[1]) % p)

    m = fmap.matrix
    cols = [{r: _ints(field, m[r, c]) for r in np.flatnonzero(m[:, c])}
            for c in range(m.shape[1])]
    source, target = _table_of(field, fmap.source), _table_of(field,
                                                              fmap.target)
    for i in range(fmap.source.n):
        for j in range(fmap.source.n):
            lhs, rhs = {}, {}
            for k, c in source.get((i, j), []):
                for r, x in cols[k].items():
                    add_into(lhs, r, mul(c, x))
            for a, x in cols[i].items():
                for b, y in cols[j].items():
                    for k, c in target.get((a, b), []):
                        add_into(rhs, k, mul(mul(x, y), c))
            if ({k: v for k, v in lhs.items() if v != (0, 0)}
                    != {k: v for k, v in rhs.items() if v != (0, 0)}):
                return (i, j), None
    return None, len(oracle_rref(field, m)[1])


@pytest.mark.parametrize("p", [3, 5], ids=["F9", "F5"])
def test_der_as_tkk_is_an_isomorphism_in_python_ints(p):
    """A second engine for the main isomorphism: the matrices der_as_tkk
    returns are bracket homomorphisms from the tensor constructions over
    the double onto lie_from_derivations of Der(J) and Inder(J), and
    have full rank, checked in Python ints."""
    ctx = RunContext(p)
    f = ctx.sqrt
    der, inder = ctx.der_j(f, "v"), ctx.inder_j(f, "v")
    isos = der_as_tkk(ctx.ck(f, "v"), ctx.kd(f), ctx.act(), ctx.transfer(),
                      der, inder, ctx.tits_double_stable(f),
                      ctx.tits_double(f))
    for iso, space in zip(isos, (der, inder), strict=True):
        target = lie_from_derivations(space)
        fmap = LinearMap(iso.map.source, target, 0, iso.map.matrix)
        assert int_homomorphism_and_rank(f, fmap) == (None, target.n)
    # a bracket-breaking swap of two columns is caught
    m = isos[0].map.matrix.copy()
    m[:, [0, 1]] = m[:, [1, 0]]
    bad = LinearMap(isos[0].map.source, isos[0].map.target, 0, m)
    assert int_homomorphism_and_rank(f, bad)[0] is not None
