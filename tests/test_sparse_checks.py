"""The sparse symmetry and super Jacobi checks against dense oracles,
and the stored COO table against its dense view.

check_supercommutative and check_super_lie run as joins over the nonzero
structure constants.  The oracles below are the dense blocked
contractions they replaced, kept here only: on real tables, on planted
single-constant defects and on random sparse tables, the two must agree
on the verdict and on the witness dict, key order included.  The same
real and random tables check that the constructor stores one canonical
table whatever the presentation of its input, and that tensor() is the
scatter of it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckder import (FieldSpec, SuperAlgebra, check_super_lie,
                   check_supercommutative, so3)
from ckder.battery import RunContext
from ckder.linalg import amod
from ckder.superalg import _first_nonzero_key
from ckder.tkk import LieSuperAlgebra

F3 = FieldSpec(3)
F9 = FieldSpec(3, ext=True)


# -- dense oracles -------------------------------------------------------


def _sign_table(a):
    """(-1)^(|i||j|) as an (n, n) float array."""
    p = a.parities
    return 1.0 - 2.0 * (p[:, None] * p[None, :])


def _first_bad_pair(diff, labels):
    flat = np.abs(diff).reshape(diff.shape[0], diff.shape[1], -1).sum(axis=2)
    bad = np.argwhere(flat != 0)
    if not bad.size:
        return None
    i, j = min((int(a), int(b)) for a, b in bad)
    return {"pair": [i, j], "labels": [labels[i], labels[j]]}


def dense_supercommutative(a):
    t = a.tensor()
    diff = amod(a.field, t - _sign_table(a)[:, :, None] * t.transpose(1, 0, 2))
    w = _first_bad_pair(diff, a.labels)
    return w is None, w


def dense_super_lie(lie):
    """Anticommutativity, then the Jacobi identity on all triples, by
    blocked contractions of the dense structure tensor."""
    f = lie.field
    n = lie.n
    t = lie.tensor()
    s = _sign_table(lie)
    anti = amod(f, t + s[:, :, None] * t.transpose(1, 0, 2))
    w = _first_bad_pair(anti, lie.labels)
    if w is not None:
        w["identity"] = "anticommutativity"
        return False, w
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
        acc = amod(f, s_ac[..., None] * j1 + s_ba[..., None] * j2
                   + s_cb[..., None] * j3)
        if np.any(acc):
            bad = np.argwhere(np.abs(acc).sum(axis=3) != 0)
            a_, b_, c_ = min((int(x), int(y), int(z)) for x, y, z in bad)
            a_ += start
            return False, {
                "triple": [a_, b_, c_], "identity": "jacobi",
                "labels": [lie.labels[a_], lie.labels[b_], lie.labels[c_]]}
    return True, None


def assert_same(verdict, oracle):
    ok, w = oracle
    assert verdict.ok == ok
    assert verdict.witness == w
    if w is not None:
        assert list(verdict.witness) == list(w)


# -- real tables ---------------------------------------------------------


@pytest.fixture(scope="module")
def ctx3():
    return RunContext(3)


TABLES = {
    "so3": lambda ctx, f: so3(f),
    "tits_double": lambda ctx, f: ctx.tits_double(f),
    "tits_double_stable": lambda ctx, f: ctx.tits_double_stable(f),
    "tits_big": lambda ctx, f: ctx.tits_big(f),
    "tkk_big": lambda ctx, f: ctx.tkk_big(f),
}


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
@pytest.mark.parametrize("name", list(TABLES))
def test_lie_tables_agree_with_the_dense_oracle(ctx3, name, field):
    lie = TABLES[name](ctx3, field)
    v = check_super_lie(lie)
    assert v
    assert_same(v, dense_super_lie(lie))
    assert_same(check_supercommutative(lie), dense_supercommutative(lie))


def _perturbed(lie, i, j, t, both_orders):
    """lie with the t-th constant of [e_i, e_j] raised by one, and
    [e_j, e_i] rewritten to match by super antisymmetry when both_orders
    is set."""
    brackets = {key: list(terms) for key, terms in lie.products.items()}
    k, c = brackets[(i, j)][t]
    brackets[(i, j)][t] = (k, c + 1)
    if both_orders:
        sign = -1 if lie.parity(i) and lie.parity(j) else 1
        brackets[(j, i)] = [(k, -sign * c) for k, c in brackets[(i, j)]]
    return LieSuperAlgebra(lie.field, lie.dim_even, lie.dim_odd, lie.labels,
                           _table(brackets), lie.grading)


def _table(grouped):
    """The (i, j, k, c) lists of a table grouped as {(i, j): [(k, c)]}."""
    return _columns([(i, j, k, c) for (i, j), ts in grouped.items()
                     for k, c in ts])


def _columns(terms):
    """The (i, j, k, c) lists of a list of entries (i, j, k, c)."""
    return tuple(map(list, zip(*terms))) if terms else ([],) * 4


@pytest.mark.parametrize("both_orders", [False, True], ids=["one", "both"])
def test_every_perturbed_constant_agrees_with_the_dense_oracle(ctx3,
                                                               both_orders):
    lie = ctx3.tits_double(F3)
    caught = 0
    for (i, j), terms in lie.products.items():
        for t in range(len(terms)):
            bad = _perturbed(lie, i, j, t, both_orders)
            v = check_super_lie(bad)
            assert_same(v, dense_super_lie(bad))
            caught += not v
    assert caught == len(lie.coo()[0])


def test_supercommutative_check_catches_a_planted_defect(ctx3):
    kd = ctx3.kd(F3)
    a = kd.alg
    assert check_supercommutative(a)
    # raise one constant of x * (t x) in one order only
    i, j = kd.x_index(0), kd.x_index(1)
    prods = {key: list(terms) for key, terms in a.products.items()}
    k, c = prods[(i, j)][0]
    prods[(i, j)][0] = (k, c + 1)
    bad = SuperAlgebra(F3, a.dim_even, a.dim_odd, a.labels, _table(prods))
    v = check_supercommutative(bad)
    assert not v
    assert v.witness["pair"] == [i, j]
    assert_same(v, dense_supercommutative(bad))


# -- random sparse tables ------------------------------------------------


@st.composite
def super_tables(draw):
    """A random sparse parity-homogeneous table with n <= 8, made
    super symmetric (+1), super antisymmetric (-1) or left as drawn.

    Returns the algebra and a second presentation of its entries: in a
    drawn order, with values shifted by multiples of p and with entries
    of value zero (mod p) on keys the table does not use."""
    field = draw(st.sampled_from([F3, F9]))
    n = draw(st.integers(2, 8))
    dim_even = draw(st.integers(0, n))
    symmetry = draw(st.sampled_from([-1, 1, None]))
    par = [0] * dim_even + [1] * (n - dim_even)
    prods = {}
    for i, j, r, a0, a1 in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.integers(0, n - 1), st.integers(0, 2), st.integers(0, 2)),
            min_size=1, max_size=4 * n)):
        ks = [k for k in range(n) if par[k] == (par[i] + par[j]) % 2]
        c = field.scalar(a0, a1 if field.ext else 0) or field.one
        if not ks:
            continue
        k = ks[r % len(ks)]
        if symmetry is not None:
            i, j = min(i, j), max(i, j)
            s = -1 if par[i] and par[j] else 1
            if i == j and symmetry * s == -1:
                continue
            prods.setdefault((j, i), {})[k] = symmetry * s * c
        prods.setdefault((i, j), {})[k] = c
    grouped = {key: list(terms.items()) for key, terms in prods.items()}
    a = SuperAlgebra(field, dim_even, n - dim_even,
                     [f"e{i}" for i in range(n)], _table(grouped))
    shift = st.integers(-3, 3)
    terms = [(i, j, k, c + field.p * complex(draw(shift),
                                             draw(shift) if field.ext else 0))
             for (i, j), ts in grouped.items() for k, c in ts]
    index = st.integers(0, n - 1)
    for i, j, k, m in draw(st.lists(st.tuples(index, index, index, shift),
                                    max_size=n)):
        if k not in prods.get((i, j), {}):
            terms.append((i, j, k, field.p * m))
            prods.setdefault((i, j), {})[k] = 0
    terms = [terms[t] for t in draw(st.permutations(range(len(terms))))]
    return a, _columns(terms)


@settings(max_examples=300)
@given(super_tables())
def test_random_tables_agree_with_the_dense_oracles(table):
    a, _ = table
    assert_same(check_supercommutative(a), dense_supercommutative(a))
    assert_same(check_super_lie(a), dense_super_lie(a))


def assert_tensor_scatters_coo(a):
    """tensor() holds the coo() values at their keys, and nothing else."""
    i, j, k, c = a.coo()
    t = a.tensor()
    assert np.array_equal(t[i, j, k], c)
    assert np.count_nonzero(t) == c.size


@settings(max_examples=300)
@given(super_tables())
def test_any_presentation_gives_the_same_stored_table(table):
    a, scrambled = table
    b = SuperAlgebra(a.field, a.dim_even, a.dim_odd, a.labels, scrambled)
    for got, want in zip(b.coo(), a.coo()):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert_tensor_scatters_coo(b)


BATTERY_TABLES = {
    "Z": lambda ctx, f: ctx.dalg(f).z,
    "K": lambda ctx, f: ctx.kd(f).alg,
    "J_w": lambda ctx, f: ctx.ck(f, "w").alg,
    "J_v": lambda ctx, f: ctx.ck(f, "v").alg,
    "coordinate": lambda ctx, f: ctx.coord().alg,
    "so3": lambda ctx, f: so3(f),
    "tits_double": lambda ctx, f: ctx.tits_double(f),
    "tkk_big": lambda ctx, f: ctx.tkk_big(f),
}


@pytest.mark.parametrize("name,field", [
    (name, field) for name in BATTERY_TABLES for field in (F3, F9)
    # the v basis and the coordinate algebra need sqrt(-1), so F9 only
    if field.ext or name not in ("J_v", "coordinate")])
def test_battery_tables_are_the_scatter_of_their_coo(ctx3, name, field):
    assert_tensor_scatters_coo(BATTERY_TABLES[name](ctx3, field))


# -- the helper ----------------------------------------------------------


def test_coo_is_the_sorted_read_only_view_of_the_tensor(ctx3):
    a = ctx3.kd(F9).alg
    i, j, k, c = a.coo()
    assert i.dtype == np.int64 and c.dtype == F9.dtype
    assert not c.flags.writeable and not i.flags.writeable
    keys = (i * a.n + j) * a.n + k
    assert np.all(np.diff(keys) > 0)
    assert np.count_nonzero(a.tensor()) == c.size
    assert np.array_equal(a.tensor()[i, j, k], c)


def test_join_sums_refuse_terms_beyond_the_exact_range():
    # (p-1)^2 < 2**52 <= 2 (p-1)^2: one term per key is exact, two are not
    big = FieldSpec(67108859)
    vals = np.array([big.p - 1.0, big.p - 1.0])
    assert _first_nonzero_key(big, np.array([0, 1]), vals) == 0
    with pytest.raises(ValueError, match="exact range"):
        _first_nonzero_key(big, np.array([3, 3]), vals)
    # the same key count fits over F3, and the sums cancel mod 3
    assert _first_nonzero_key(F3, np.array([3, 3]),
                              np.array([1.0, 2.0])) is None
