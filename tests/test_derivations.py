"""Derivation superalgebras: solved and spanned, named families, the
characteristic-3 anomaly, gradings, restriction and extension."""

import numpy as np
import pytest
from hypothesis import given, settings

from ckder import (DerivationSpace, FieldSpec, LinearMap, amod, cheng_kac,
                   derivation_algebra, extend_even_der, extend_odd_eta,
                   grade_derivations, inner_derivation,
                   inner_derivation_algebra, is_derivation, kantor_double,
                   kernel, lift_even_der, odd_der_char3, odd_der_eta,
                   quadratic_jordan, restrict_to_k, stable_der_double,
                   truncated_poly)
from ckder import derivations, superalg
from ckder.derivations import _leibniz_kernel, _leibniz_system, _mult_matrix
from ckder.linalg import Eliminator, Subspace, inverses
from ckder.superalg import (TERM_BUDGET, _canonical, _entries, _peel,
                            _sparse_kernel, sum_per_key)
from oracles import tensor
from test_sparse_checks import flat_span, super_tables

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, ext=True)


def tdelta(kd):
    """The derivation t * d/dt of the coefficient algebra, as a matrix."""
    z = kd.dalg.z
    t = np.zeros(z.n)
    t[1] = 1
    return amod(z.field, _mult_matrix(z, t) @ kd.dalg.delta.matrix)


def slow_derivation_dims(a):
    """Dimensions of the homogeneous derivation spaces, found by writing
    out the Leibniz conditions with plain nested loops.  Shares nothing
    with the tensor-based solver except the row reducer."""
    n = a.n
    t = tensor(a)
    par = [a.parity(i) for i in range(n)]
    basis = [a.basis_vector(i) for i in range(n)]
    dims = []
    for parity in (0, 1):
        rows = []
        for i in range(n):
            for j in range(n):
                prod = a.multiply(basis[i], basis[j])
                sign = -1 if parity and par[i] else 1
                # coordinate r of d(e_i e_j) - d(e_i) e_j -/+ e_i d(e_j),
                # linear in the n*n unknown entries d[m, c]
                for r in range(n):
                    row = np.zeros((n, n), dtype=np.complex128)
                    row[r, :] += prod
                    for m in range(n):
                        row[m, i] -= t[m, j, r]
                        row[m, j] -= sign * t[i, m, r]
                    rows.append(row.reshape(-1))
        # entries outside the parity pattern are forced to zero
        for r in range(n):
            for c in range(n):
                if (par[r] + par[c]) % 2 != parity:
                    row = np.zeros(n * n, dtype=np.complex128)
                    row[r * n + c] = 1
                    rows.append(row)
        dims.append(kernel(a.field, amod(a.field, np.asarray(rows))).dim)
    return tuple(dims)


def test_derivations_of_quadratic_jordan_match_slow_solver():
    j = quadratic_jordan(F5)
    ds = derivation_algebra(j)
    assert ds.dims == (3, 0)
    assert slow_derivation_dims(j) == (3, 0)
    for d in ds.even_basis:
        assert is_derivation(j, d)
        # a unital algebra kills the unit under every derivation
        assert not np.any(d(j.basis_vector(0)))


def test_double_derivation_dims_match_slow_solver_p3():
    kd = kantor_double(truncated_poly(F3))
    assert slow_derivation_dims(kd.alg) == (3, 4)
    assert derivation_algebra(kd.alg).dims == (3, 4)


def dense_leibniz_kernel(a, parity):
    """Canonical basis, as flattened column-major matrices, of the
    parity-homogeneous derivations of a: the whole Leibniz matrix,
    built from the dense tensor by einsum, and its kernel.  Shares
    nothing with the block solver except the row reducer."""
    n = a.n
    f = a.field
    t = tensor(a)
    par = a.parities
    eye = np.eye(n)
    sign = 1.0 - 2.0 * parity * par
    allowed = np.flatnonzero(
        (par[None, :] == (par[:, None] + parity) % 2).ravel())
    flat = np.zeros((0, n * n), dtype=f.dtype)
    if not allowed.size:
        return flat
    rows = []
    for i in range(n):
        # coefficient of the unknown d[m, c] in coordinate r of
        # d(e_i e_j) - d(e_i) e_j - s_i e_i d(e_j), at [j, r, c, m]
        m = (np.einsum("jc,rm->jrcm", t[i], eye)
             - np.einsum("c,mjr->jrcm", eye[i], t)
             - sign[i] * np.einsum("cj,mr->jrcm", eye, t[i]))
        rows.append(amod(f, m.reshape(n * n, n * n)[:, allowed]))
    m = np.concatenate(rows)
    basis = kernel(f, m[m.any(axis=1)]).basis
    flat = np.zeros((len(basis), n * n), dtype=f.dtype)
    flat[:, allowed] = basis
    return flat


def assert_solve_matches_dense_oracle(a):
    ds = derivation_algebra(a)
    for parity, maps in ((0, ds.even_basis), (1, ds.odd_basis)):
        want = dense_leibniz_kernel(a, parity)
        got = np.zeros((0, a.n * a.n), dtype=a.field.dtype)
        if maps:
            got = np.stack([d.flatten() for d in maps])
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


ORACLE_TABLES = {
    "K_F3": lambda: kantor_double(truncated_poly(F3)).alg,
    "K_F5": lambda: kantor_double(truncated_poly(F5)).alg,
    "Jw_F3": lambda: cheng_kac(truncated_poly(F3), basis="w").alg,
    "Jv_F9": lambda: cheng_kac(truncated_poly(F9), basis="v").alg,
    "quadratic_jordan": lambda: quadratic_jordan(F5),
}


@pytest.mark.parametrize("name", ORACLE_TABLES)
def test_block_solve_matches_the_dense_oracle(name):
    assert_solve_matches_dense_oracle(ORACLE_TABLES[name]())


@settings(max_examples=150)
@given(super_tables())
def test_block_solve_matches_the_dense_oracle_on_random_tables(table):
    assert_solve_matches_dense_oracle(table[0])


# -- substitution rounds of the sparse solve -----------------------------


def sparse_system(field, m):
    """The dense system m reduced, and the keys e nu + u and values of
    its nonzero cells, as _sparse_kernel and _peel take them."""
    m = amod(field, field.array(m))
    e, u = np.nonzero(m)
    return m, e * m.shape[1] + u, m[e, u]


def check_sparse_kernel(field, m):
    """_sparse_kernel on the dense system m against the dense kernel: as
    many rows as the kernel dimension, and the same span.  Returns the
    system as sparse_system does."""
    m, keys, vals = sparse_system(field, m)
    nu = m.shape[1]
    k, u, x = _sparse_kernel(field, keys, vals, nu)
    # the sparse rows scattered: every row has a nonzero entry
    got = np.zeros((k.max(initial=-1) + 1, nu), dtype=x.dtype)
    got[k, u] = x
    want = kernel(field, m)
    assert got.dtype == field.dtype
    assert got.shape == (want.dim, nu)
    assert Subspace(field, nu, got).equals(want)
    return m, keys, vals


def peel_and_check(monkeypatch, field, m, rounds):
    """check_sparse_kernel on m, then _peel on it, which must take the
    given number of rounds: one re-summing sum_per_key call each.  A
    round resolves its chains and zeroes in full, so a round short of
    either leaves work that costs another round."""
    m, keys, vals = check_sparse_kernel(field, m)
    calls = []

    def counted(*args):
        calls.append(args)
        return sum_per_key(*args)

    with monkeypatch.context() as mp:
        mp.setattr(superalg, "sum_per_key", counted)
        out = _peel(field, keys, vals, m.shape[1])
    assert len(calls) == rounds
    return out


def coefficient(field):
    """A coefficient that is not in the prime field when there is u."""
    return field.scalar(2, 1 if field.ext else 0)


@pytest.mark.parametrize("field", [F5, F9])
def test_peel_sets_singleton_unknowns_to_zero(field, monkeypatch):
    c = coefficient(field)
    keys, _, root, weight = peel_and_check(
        monkeypatch, field, [[c, 0, 0, 0], [0, 0, 2, 0], [0, 0, c, 0]], 1)
    assert keys.size == 0
    assert np.array_equal(root, np.arange(4))
    assert np.array_equal(weight, [0, 1, 0, 1])


@pytest.mark.parametrize("field", [F5, F9])
def test_peel_resolves_a_chain_to_its_root(field, monkeypatch):
    # x2 = -c x1 and x1 = -x0 / 2 link 2 -> 1 -> 0 in one round, and
    # the three-cell x2 + x3 + x4 = 0 survives on the roots 0, 3 and 4
    c = coefficient(field)
    keys, vals, root, weight = peel_and_check(
        monkeypatch, field,
        [[0, c, 1, 0, 0], [1, 2, 0, 0, 0], [0, 0, 1, 1, 1]], 1)
    w1 = field.neg(field.inv(2))
    w2 = field.mul(field.neg(c), w1)
    assert np.array_equal(root, [0, 0, 0, 3, 4])
    assert np.array_equal(weight, [1, w1, w2, 1, 1])
    assert np.array_equal(keys, [2 * 5 + 0, 2 * 5 + 3, 2 * 5 + 4])
    assert np.array_equal(vals, [w2, 1, 1])


@pytest.mark.parametrize("field", [F5, F9])
def test_peel_zeroes_an_inconsistent_doubleton_cycle(field, monkeypatch):
    # x1 = c x0 and x1 = 2c x0: the second, rewritten, reads c x0 = 0
    c = coefficient(field)
    keys, _, root, weight = peel_and_check(
        monkeypatch, field, [[c, -1, 0], [field.mul(2, c), -1, 0]], 2)
    assert keys.size == 0
    assert np.array_equal(root, [0, 0, 2])
    assert np.array_equal(weight, [0, 0, 1])


@pytest.mark.parametrize("field", [F5, F9])
def test_peel_zeroes_the_chain_of_a_root_zeroed_in_the_same_round(
        field, monkeypatch):
    # x0 = 0 and x1 = 2 x0 in one round: x1 is zero too, so the
    # three-cell x1 + x2 + x3 = 0 drops to x2 + x3 = 0, next round
    c = coefficient(field)
    keys, _, root, weight = peel_and_check(
        monkeypatch, field, [[c, 0, 0, 0], [-2, 1, 0, 0], [0, 1, 1, 1]], 2)
    assert keys.size == 0
    assert np.array_equal(root, [0, 0, 2, 2])
    assert np.array_equal(weight, [0, 0, 1, field.neg(1)])


@pytest.mark.parametrize("field", [F5, F9])
def test_peel_leaves_a_pure_three_cell_system_to_the_eliminator(
        field, monkeypatch):
    c = coefficient(field)
    m = [[1, c, 1, 0, 0, 0], [0, 1, 2, c, 0, 0], [c, 0, 0, 1, 2, 0]]
    _, keys, vals = sparse_system(field, m)
    got = peel_and_check(monkeypatch, field, m, 0)
    assert np.array_equal(got[0], keys) and np.array_equal(got[1], vals)
    assert np.array_equal(got[2], np.arange(6))
    assert np.array_equal(got[3], np.ones(6))


@pytest.mark.parametrize("field", [F5, F9])
def test_sparse_kernel_matches_the_dense_kernel_on_random_systems(field):
    rng = np.random.default_rng(field.order)
    nonzero = [x for x in field.elements() if x != 0]
    for _ in range(150):
        nu = int(rng.integers(1, 10))
        m = np.zeros((int(rng.integers(0, 10)), nu), dtype=field.dtype)
        for row in m:
            at = rng.choice(nu, size=int(rng.integers(1, min(nu, 3) + 1)),
                            replace=False)
            row[at] = [nonzero[t] for t in
                       rng.integers(0, len(nonzero), size=at.size)]
        check_sparse_kernel(field, m)


# -- the Leibniz system, built one range of equations at a time ---------


def whole_leibniz_system(a, parity, mirrored=False):
    """The Leibniz system of a built whole: the three term families of
    every structure constant at once, summed by one sum_per_key call.
    Returns its keys and sums, the number of terms of each key, and nu.
    On a table with a mirror_sign only the equations at x <= j are kept,
    as _leibniz_system makes them, unless mirrored asks for all."""
    n, par = a.n, a.parities
    allowed = np.flatnonzero(
        (par[None, :] == (par[:, None] + parity) % 2).ravel())
    nu = allowed.size
    uidx = np.full(n * n, -1, dtype=np.int64)
    uidx[allowed] = np.arange(nu)
    i, j, k, c = a.coo()
    de = a.dim_even

    def fan_out(q):
        return superalg.expand_runs(np.where(q == 0, 0, de),
                                    np.where(q == 0, de, n - de))

    t, r = fan_out(par[k] ^ parity)
    keys = [(i[t] * n + j[t]) * n + r]
    cells = [uidx[k[t] * n + r]]
    vals = [c[t]]
    t, x = fan_out(par[i] ^ parity)
    keys.append((x * n + j[t]) * n + k[t])
    cells.append(uidx[x * n + i[t]])
    vals.append(-c[t])
    t, y = fan_out(par[j] ^ parity)
    keys.append((i[t] * n + y) * n + k[t])
    cells.append(uidx[y * n + j[t]])
    vals.append(-(1.0 - 2.0 * parity * par[i[t]]) * c[t])
    keys = np.concatenate(keys) * nu + np.concatenate(cells)
    vals = np.concatenate(vals)
    if a.mirror_sign is not None and not mirrored:
        x, y = np.divmod(keys // nu // n, n)
        keys, vals = keys[x <= y], vals[x <= y]
    uniq, sums = sum_per_key(a.field, keys, vals)
    terms = np.unique(keys, return_counts=True)
    return uniq, sums, terms, nu


def assert_mirrored_equations(a, parity):
    """Every equation at (x, j) with x > j of the whole system is e
    (-1)^(|x||j|) times the one at (j, x), e = a.mirror_sign."""
    uniq, sums, _, nu = whole_leibniz_system(a, parity, mirrored=True)
    n, par = a.n, a.parities
    (x, j), rest = np.divmod(uniq // nu // n, n), uniq % (nu * n)
    sign = a.mirror_sign * (1.0 - 2.0 * (par[x] * par[j]))
    low, high = x < j, x > j
    mirror = (j[high] * n + x[high]) * n * nu + rest[high]
    order = np.argsort(mirror)
    assert np.array_equal(mirror[order], uniq[low])
    assert np.array_equal(amod(a.field, sign[high] * sums[high])[order],
                          sums[low])


LEIBNIZ_TABLES = {
    "Jw_F3": lambda: cheng_kac(truncated_poly(F3), basis="w").alg,
    "Jv_F9": lambda: cheng_kac(truncated_poly(F9), basis="v").alg,
    "Jw_F5": lambda: cheng_kac(truncated_poly(F5), basis="w").alg,
    "K_F3": lambda: kantor_double(truncated_poly(F3)).alg,
    "K_F5": lambda: kantor_double(truncated_poly(F5)).alg,
}


def assert_bitwise(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("budget", [TERM_BUDGET, 2000, 1],
                         ids=["default", "2000", "1"])
@pytest.mark.parametrize("name", LEIBNIZ_TABLES)
def test_ranged_leibniz_system_equals_the_whole_system(name, budget,
                                                       monkeypatch):
    """Built and summed one range of first indices at a time, the system
    has the keys, sums and per-key term counts of the whole one at x <=
    j, so the exact-range guard sees the same counts; each equation it
    leaves out is the signed copy of its mirror, and the kernel stack is
    the one the whole system with every equation gives.  The ranges are
    cut from exact term counts: each holds at most budget terms or a
    single x, and the next x would not have fitted."""
    a = LEIBNIZ_TABLES[name]()
    assert a.mirror_sign == 1.0
    for parity in (0, 1):
        assert_mirrored_equations(a, parity)
        uniq, sums, terms, nu = whole_leibniz_system(a, parity)
        summed = []

        def recorded(field, keys, vals):
            summed.append(keys)
            return sum_per_key(field, keys, vals)

        with monkeypatch.context() as mp:
            mp.setattr(derivations, "sum_per_key", recorded)
            keys, vals, got_nu, allowed = _leibniz_system(a, parity, budget)
        assert got_nu == nu
        assert_bitwise((keys, vals), (uniq, sums))
        # every key is summed whole, in one range
        assert_bitwise(np.unique(np.concatenate(summed), return_counts=True),
                       terms)
        if budget == 1:
            assert len(summed) == a.n
        xs = [np.unique(x // nu // a.n ** 2, return_counts=True)[1]
              for x in summed]
        for got, after in zip(xs, xs[1:] + [[budget]]):
            assert got.sum() <= budget or got.size == 1
            assert got.sum() + after[0] > budget
        whole = whole_leibniz_system(a, parity, mirrored=True)
        k, x, v = _sparse_kernel(a.field, *whole[:2], nu)
        c, r = np.divmod(allowed[x], a.n)
        got = _leibniz_kernel(a, parity, budget)
        assert_bitwise(got[1], (k, r, c, v))
        assert np.array_equal(got[0], np.full(k.max(initial=-1) + 1, parity))


@settings(max_examples=150)
@given(super_tables())
def test_ranged_leibniz_system_on_random_tables(table):
    """On random tables, super symmetric, antisymmetric or neither, at a
    budget of one term: the ranged system is the whole one, at x <= j
    when the table has a mirror_sign, and every equation left out is the
    signed copy of its mirror."""
    a = table[0]
    for parity in (0, 1):
        if a.mirror_sign is not None:
            assert_mirrored_equations(a, parity)
        keys, vals, nu, _ = _leibniz_system(a, parity, 1)
        assert_bitwise((keys, vals), whole_leibniz_system(a, parity)[:2])


def test_leibniz_system_of_jw_f5_keys_only_pairs_x_le_j(monkeypatch):
    """J_w over F5 is supercommutative, so its Leibniz system keys only
    the pairs x <= j: 39,280 terms over both parities, where the whole
    system made 76,800 (38,400 each).  Validating Der(J_w) keys 14,656
    terms, where keying every pair made 28,724."""
    a = LEIBNIZ_TABLES["Jw_F5"]()
    sizes = []

    def counted(real):
        def count(field, keys, vals):
            sizes.append(keys.size)
            return real(field, keys, vals)
        return count

    monkeypatch.setattr(derivations, "sum_per_key",
                        counted(derivations.sum_per_key))
    for parity in (0, 1):
        keys, _, nu, _ = _leibniz_system(a, parity)
        x, j = np.divmod(keys // nu // a.n, a.n)
        assert np.all(x <= j)
    assert sum(sizes) == 39280
    ds = derivation_algebra(a)
    sizes.clear()
    monkeypatch.setattr(superalg, "_first_nonzero_key",
                        counted(superalg._first_nonzero_key))
    assert superalg.leibniz_violation(a, *ds.stack()) is None
    assert sizes == [14656]


def peel_resumming_every_cell(field, keys, vals, nu):
    """_peel as it was before it dropped the cells that sum to zero:
    every round rewrites and re-sums every cell."""
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
        keys, vals = sum_per_key(field, eq * nu + link[col], vals * w[col])
    return keys, vals, root, weight


@pytest.mark.parametrize("name", LEIBNIZ_TABLES)
def test_peel_equals_the_peel_that_resums_every_cell(name):
    a = LEIBNIZ_TABLES[name]()
    for parity in (0, 1):
        keys, vals, nu, _ = _leibniz_system(a, parity)
        assert_bitwise(_peel(a.field, keys, vals, nu),
                       peel_resumming_every_cell(a.field, keys, vals, nu))


@pytest.mark.parametrize("field", [F5, F9])
def test_peel_equals_the_peel_that_resums_every_cell_on_random_systems(
        field):
    rng = np.random.default_rng(field.order + 1)
    nonzero = [x for x in field.elements() if x != 0]
    for _ in range(150):
        nu = int(rng.integers(1, 10))
        m = np.zeros((int(rng.integers(0, 12)), nu), dtype=field.dtype)
        for row in m:
            at = rng.choice(nu, size=int(rng.integers(1, min(nu, 4) + 1)),
                            replace=False)
            row[at] = [nonzero[t] for t in
                       rng.integers(0, len(nonzero), size=at.size)]
        _, keys, vals = sparse_system(field, m)
        assert_bitwise(_peel(field, keys, vals, nu),
                       peel_resumming_every_cell(field, keys, vals, nu))


def test_peel_resums_only_the_cells_that_survive(monkeypatch):
    """In the first round of the even Leibniz system of J_w over F5, the
    cells of the one-cell equations, of the links and on the unknowns
    set to zero are dropped: 5,187 of the 17,634 cells, which are the
    equations at x <= j only, are re-summed."""
    a = LEIBNIZ_TABLES["Jw_F5"]()
    keys, vals, nu, _ = _leibniz_system(a, 0)
    sizes = []

    def counted(field, keys, vals):
        sizes.append(keys.size)
        return sum_per_key(field, keys, vals)

    monkeypatch.setattr(superalg, "sum_per_key", counted)
    _peel(a.field, keys, vals, nu)
    assert keys.size == 17634 and sizes[0] == 5187


# -- the canonical RREF of a span of sparse rows -------------------------


def canonical_rows(field, m):
    """_canonical on the nonzero cells of the rows of m, scattered back
    into a dense matrix, one row per u."""
    m = amod(field, field.array(m))
    q, cell = np.nonzero(m)
    u, b, x = _canonical(field, q, cell, m[q, cell])
    out = np.zeros((u.max(initial=-1) + 1, m.shape[1]), dtype=field.dtype)
    out[u, b] = x
    return out


def eliminator_rref(field, m):
    elim = Eliminator(field, np.shape(m)[1])
    elim.add_rows(amod(field, field.array(m)))
    return elim.rref()[0]


@pytest.mark.parametrize("field", [F5, F9])
def test_canonical_scales_a_block_of_proportional_rows_without_eliminator(
        field, monkeypatch):
    """A block whose rows are multiples of its first row has that row,
    scaled to lead 1, as its RREF, and no Eliminator is built for it;
    rows of the same cells whose values are not proportional, and rows
    as long as the first on other cells, go through one."""
    c = coefficient(field)
    built = []

    class Recording(Eliminator):
        def __init__(self, field, ncols):
            built.append(ncols)
            super().__init__(field, ncols)

    base = field.array([0, c, 2, 0, 1])
    cases = [
        ([base, 2 * base, field.mul(c, 2) * base, [1, 0, 0, 0, 0]], []),
        ([[0, c, 2, 0, 1], [0, c, 2, 0, 2], [0, 0, 0, 1, 0]], [3]),
        ([[0, c, 2, 0, 0], [0, c, 0, 0, 2], [0, 0, 0, 1, 0]], [3]),
        ([[0, c, 2, 0, 0], [0, 2 * c, 4, 0, 0], [0, 0, 2, 0, 1]], [3]),
    ]
    for m, widths in cases:
        built.clear()
        want = eliminator_rref(field, m)
        with monkeypatch.context() as mp:
            mp.setattr(superalg, "Eliminator", Recording)
            got = canonical_rows(field, m)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert built == widths


@pytest.mark.parametrize("field", [F5, F9])
def test_canonical_matches_the_eliminator_on_random_rows(field):
    """Random rows, many of them multiples of others, in blocks of every
    kind: the result is the Eliminator's RREF, bitwise."""
    rng = np.random.default_rng(field.order + 2)
    nonzero = [x for x in field.elements() if x != 0]
    for _ in range(100):
        ncols = int(rng.integers(1, 9))
        rows = []
        for _ in range(int(rng.integers(1, 8))):
            if rows and rng.random() < 0.5:
                k = nonzero[int(rng.integers(len(nonzero)))]
                pick = rows[int(rng.integers(len(rows)))]
                rows.append(amod(field, k * pick))
                continue
            row = np.zeros(ncols, dtype=field.dtype)
            at = rng.choice(ncols, size=int(rng.integers(1, ncols + 1)),
                            replace=False)
            row[at] = [nonzero[t] for t in
                       rng.integers(0, len(nonzero), size=at.size)]
            rows.append(row)
        m = np.stack(rows)
        assert canonical_rows(field, m).tobytes() == \
            eliminator_rref(field, m).tobytes()


@pytest.mark.parametrize("p", [3, 5])
def test_inner_span_of_j_builds_no_eliminator(p, monkeypatch):
    """Every block of the inner span of J is rank one, so canonicalizing
    it builds no Eliminator."""
    a = cheng_kac(truncated_poly(FieldSpec(p)), basis="w").alg
    built = []

    class Recording(Eliminator):
        def __init__(self, field, ncols):
            built.append(ncols)
            super().__init__(field, ncols)

    monkeypatch.setattr(superalg, "Eliminator", Recording)
    assert inner_derivation_algebra(a).dims == (4 * p, 4 * p)
    assert built == []


def _rank_mod(rows, p):
    """Rank of integer rows over F_p by plain Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][c], -1, p)
        rows[rk] = [x * inv % p for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c] % p:
                m = rows[i][c]
                rows[i] = [(x - m * y) % p for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def scratch_double_derivation_dims(p):
    """Derivation dimensions of K = Z + Zx for Z = F_p[t]/(t^p), with
    the product written out from its formulas in Python integers: no
    numpy and nothing from ckder."""
    def zmul(f, g):
        h = [0] * p
        for i in range(p):
            for j in range(p - i):
                h[i + j] += f[i] * g[j]
        return h

    def delta(f):
        return [(k + 1) * f[k + 1] for k in range(p - 1)] + [0]

    def mul(u, v):
        # f g + (fx)(gx), with (fx)(gx) = delta(f) g - f delta(g)
        even = [a + b - c for a, b, c in zip(
            zmul(u[:p], v[:p]), zmul(delta(u[p:]), v[p:]),
            zmul(u[p:], delta(v[p:])))]
        odd = [a + b for a, b in zip(zmul(u[:p], v[p:]), zmul(u[p:], v[:p]))]
        return [x % p for x in even + odd]

    n = 2 * p
    par = [0] * p + [1] * p
    e = [[int(i == k) for k in range(n)] for i in range(n)]
    dims = []
    for parity in (0, 1):
        unknowns = [(r, c) for c in range(n) for r in range(n)
                    if par[r] == (par[c] + parity) % 2]
        col = {rc: k for k, rc in enumerate(unknowns)}
        eqs = []
        for i in range(n):
            for j in range(n):
                sign = -1 if parity and par[i] else 1
                # coordinate r of d(e_i e_j) - d(e_i) e_j -/+ e_i d(e_j)
                rows = [[0] * len(unknowns) for _ in range(n)]
                prod = mul(e[i], e[j])
                for k in range(n):
                    for r in range(n):
                        if prod[k] and (r, k) in col:
                            rows[r][col[(r, k)]] += prod[k]
                for m in range(n):
                    left, right = mul(e[m], e[j]), mul(e[i], e[m])
                    for r in range(n):
                        if (m, i) in col:
                            rows[r][col[(m, i)]] -= left[r]
                        if (m, j) in col:
                            rows[r][col[(m, j)]] -= sign * right[r]
                eqs += rows
        dims.append(len(unknowns) - _rank_mod(eqs, p))
    return tuple(dims)


@pytest.mark.parametrize("p,want", [(3, (3, 4)), (5, (5, 5))])
def test_double_derivation_dims_from_scratch(p, want):
    """An independent construction of the double, built and solved in
    plain integers, gives the dimensions of the exact solver."""
    assert scratch_double_derivation_dims(p) == want
    kd = kantor_double(truncated_poly(FieldSpec(p)))
    assert derivation_algebra(kd.alg).dims == want


def oracle(ds, q):
    """The even (0) or odd (1) part of ds as a flattened Subspace."""
    return flat_span(ds.algebra, ds.odd_basis if q else ds.even_basis)


def test_double_derivation_dims_p5():
    kd = kantor_double(truncated_poly(F5))
    der = derivation_algebra(kd.alg)
    inder = inner_derivation_algebra(kd.alg)
    assert der.dims == (5, 5)
    assert inder.dims == (5, 5)
    assert der.equals(inder)
    for d in der.even_basis + der.odd_basis:
        assert is_derivation(kd.alg, d)


def test_double_derivation_dims_p3_has_one_extra_odd_line():
    kd = kantor_double(truncated_poly(F3))
    der = derivation_algebra(kd.alg)
    inder = inner_derivation_algebra(kd.alg)
    assert der.dims == (3, 4)
    assert inder.dims == (3, 3)
    assert oracle(der, 0).equals(oracle(inder, 0))
    # the odd excess is exactly the line through the delta companion
    dminus = odd_der_char3(kd, kd.dalg.delta.matrix)
    extra = flat_span(kd.alg, [dminus])
    assert extra.dim == 1
    assert not oracle(inder, 1).contains(extra)
    assert oracle(inder, 1).is_direct_sum(extra)
    assert oracle(der, 1).equals(oracle(inder, 1).sum(extra))


@pytest.mark.parametrize("p", [3, 5])
def test_big_algebra_derivations(p):
    ck = cheng_kac(truncated_poly(FieldSpec(p)))
    inder = inner_derivation_algebra(ck.alg)
    assert inder.dims == (4 * p, 4 * p)
    if p == 3:
        der = derivation_algebra(ck.alg)
        assert der.equals(inder)


def rref_equal(x, y):
    """The comparison equals replaced: both parities as flattened RREFs."""
    return all(oracle(x, q).equals(oracle(y, q)) for q in (0, 1))


@pytest.mark.parametrize("p", [3, 5])
def test_derivation_spaces_compare_by_dims_and_entries(p):
    """Canonical bases make equal spaces bitwise equal, so equals reads
    the dims and entries() and builds no flattened RREF; it agrees with
    the RREF comparison on equal spaces, on a space with one entry of
    one basis map changed, and on two different spaces of equal dims."""
    a = cheng_kac(truncated_poly(FieldSpec(p))).alg
    der, inder = derivation_algebra(a), inner_derivation_algebra(a)
    assert der.equals(inder) and rref_equal(der, inder)
    # one entry changed off every pivot (the first cell column-major)
    u, r, c, _ = inder.entries()
    pivot = np.full(inder.dim, a.n ** 2)
    np.minimum.at(pivot, u, c * a.n + r)
    t = np.flatnonzero(~np.isin(c * a.n + r, pivot))[0]
    s, row, col = u[t], r[t], c[t]
    maps = inder.even_basis + inder.odd_basis
    m = maps[s].matrix.copy()
    m[row, col] = (m[row, col] + 1) % p
    maps[s] = LinearMap(a, a, maps[s].parity, m)
    bumped = DerivationSpace(a, maps[:inder.dims[0]], maps[inder.dims[0]:],
                             canonicalize=False, validate=False)
    assert bumped.dims == inder.dims
    assert not bumped.equals(inder) and not rref_equal(bumped, inder)
    one, other = (DerivationSpace(a, inder.even_basis[k:k + 1], [],
                                  canonicalize=False) for k in (0, 1))
    assert one.dims == other.dims == (1, 0)
    assert not one.equals(other) and not rref_equal(one, other)


@pytest.mark.parametrize("p", [3, 5])
def test_parts_compare_as_their_flattened_spans(p):
    """part(q) keeps the basis of one parity, and part(q).equals agrees
    with the flattened-Subspace oracle on every pair of parts of der_j,
    inder_j and inder_j short of its last map of each parity."""
    a = cheng_kac(truncated_poly(FieldSpec(p))).alg
    der, inder = derivation_algebra(a), inner_derivation_algebra(a)
    short = DerivationSpace(a, inder.even_basis[:-1], inder.odd_basis[:-1],
                            canonicalize=False, validate=False)
    spaces = (der, inder, short)
    for x in spaces:
        assert x.part(0).dims == (x.dims[0], 0)
        assert x.part(1).dims == (0, x.dims[1])
        for y in spaces:
            for q in (0, 1):
                for r in (0, 1):
                    assert x.part(q).equals(y.part(r)) == \
                        oracle(x, q).equals(oracle(y, r))


def test_lift_even_der():
    kd = kantor_double(truncated_poly(F5))
    a = kd.alg
    d = lift_even_der(kd, tdelta(kd))
    # on Z: t^k -> k t^k; on the odd part the shift constant is 2 since
    # [t d/dt, d/dt] = -d/dt = 2 * 2 * d/dt over F5
    for k in range(5):
        assert np.array_equal(d(a.basis_vector(kd.z_index(k))),
                              k * a.basis_vector(kd.z_index(k)))
    assert np.array_equal(d(a.basis_vector(kd.x_index(0))),
                          2 * a.basis_vector(kd.x_index(0)))
    assert np.array_equal(d(a.basis_vector(kd.x_index(2))),
                          4 * a.basis_vector(kd.x_index(2)))
    # the differential itself lifts with no odd shift
    d0 = lift_even_der(kd, kd.dalg.delta.matrix)
    assert np.array_equal(d0(a.basis_vector(kd.x_index(2))),
                          2 * a.basis_vector(kd.x_index(1)))
    # multiplication by t is not a derivation of Z
    with pytest.raises(ValueError, match="not a derivation"):
        lift_even_der(kd, _mult_matrix(kd.dalg.z, [0, 1, 0, 0, 0]))


def test_odd_der_eta():
    kd = kantor_double(truncated_poly(F5))
    a = kd.alg
    t = np.zeros(5)
    t[1] = 1
    eta = odd_der_eta(kd, t)
    assert eta.parity == 1
    assert np.array_equal(eta(a.basis_vector(kd.x_index(0))),
                          a.basis_vector(kd.z_index(1)))
    assert np.array_equal(eta(a.basis_vector(kd.x_index(3))),
                          a.basis_vector(kd.z_index(4)))
    assert not np.any(eta(a.basis_vector(kd.z_index(2))))
    assert is_derivation(a, eta)


def test_odd_der_char3_accepts_only_constant_multiples_of_delta():
    kd = kantor_double(truncated_poly(F3))
    good = odd_der_char3(kd, kd.dalg.delta.matrix)
    assert is_derivation(kd.alg, good)
    assert good.parity == 1
    # t * delta fails the Leibniz rule, first on the pair (x, t x)
    with pytest.raises(AssertionError):
        odd_der_char3(kd, tdelta(kd))
    cand = odd_der_char3(kd, tdelta(kd), check=False)
    v = is_derivation(kd.alg, cand)
    assert not v
    assert v.witness["pair"] == [kd.x_index(0), kd.x_index(1)]
    # and the construction is refused away from characteristic 3
    kd5 = kantor_double(truncated_poly(F5))
    with pytest.raises(ValueError, match="characteristic 3"):
        odd_der_char3(kd5, kd5.dalg.delta.matrix)


def test_extension_and_restriction_round_trip():
    kd = kantor_double(truncated_poly(F5))
    ck = cheng_kac(truncated_poly(F5))
    d = lift_even_der(kd, tdelta(kd))
    big = extend_even_der(ck, d)
    assert is_derivation(ck.alg, big)
    back = restrict_to_k(ck, big, kd)
    assert np.array_equal(back.matrix, d.matrix)

    t = np.zeros(5)
    t[1] = 1
    eta_big = extend_odd_eta(ck, t)
    assert is_derivation(ck.alg, eta_big)
    back_eta = restrict_to_k(ck, eta_big, kd)
    assert np.array_equal(back_eta.matrix, odd_der_eta(kd, t).matrix)


def test_restriction_rejects_maps_that_leave_the_double():
    ck = cheng_kac(truncated_poly(F5))
    kd = kantor_double(truncated_poly(F5))
    w1 = ck.alg.basis_vector(ck.even_index(1, 0))
    x = ck.alg.basis_vector(ck.odd_index(0, 0))
    d = inner_derivation(ck.alg, w1, x)
    with pytest.raises(ValueError):
        restrict_to_k(ck, d, kd)


def test_graded_components_of_the_inner_algebra():
    ck = cheng_kac(truncated_poly(F3))
    inder = inner_derivation_algebra(ck.alg)
    graded = grade_derivations(inder)
    table = graded.dims_table()
    assert set(table) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for grade in table:
        assert table[grade] == (3, 3)
    # the four components fill the whole space
    total_even = sum(table[g][0] for g in table)
    total_odd = sum(table[g][1] for g in table)
    assert (total_even, total_odd) == inder.dims
    flat = None
    for grade in table:
        comp = graded.component(grade)
        s = oracle(comp, 0).sum(oracle(comp, 1))
        flat = s if flat is None else flat.sum(s)
    assert flat.dim == inder.dim


def test_grading_rejects_a_map_across_two_fine_components():
    ck = cheng_kac(truncated_poly(F3))
    graded = grade_derivations(inner_derivation_algebra(ck.alg))
    d1 = graded.component((0, 0)).even_basis[0]
    d2 = graded.component((1, 0)).even_basis[0]
    mixed = LinearMap(ck.alg, ck.alg, 0,
                      amod(F3, d1.matrix + d2.matrix))
    with pytest.raises(ValueError, match="not graded"):
        grade_derivations(DerivationSpace(ck.alg, [mixed], []))


def test_stable_subalgebra_of_the_double():
    kd3 = kantor_double(truncated_poly(F3))
    der3 = derivation_algebra(kd3.alg)
    inder3 = inner_derivation_algebra(kd3.alg)
    bar3 = stable_der_double(kd3, der3, inder3)
    assert bar3.dims == (3, 3)
    assert oracle(bar3, 0).equals(oracle(der3, 0))
    assert oracle(bar3, 1).equals(oracle(inder3, 1))
    # away from characteristic 3 nothing is cut
    kd5 = kantor_double(truncated_poly(F5))
    der5 = derivation_algebra(kd5.alg)
    inder5 = inner_derivation_algebra(kd5.alg)
    assert stable_der_double(kd5, der5, inder5).equals(der5)


def contains(ds, d):
    """Membership of the map d in ds, by its coordinates."""
    n = ds.algebra.n
    s, r, c, v = _entries(ds.algebra.field, d.matrix[None])
    return ds.coordinates((s * n + c) * n + r, v) is not None


def test_derivation_space_membership():
    kd = kantor_double(truncated_poly(F5))
    inder = inner_derivation_algebra(kd.alg)
    a = kd.alg
    d = inner_derivation(a, a.basis_vector(kd.x_index(1)),
                         a.basis_vector(kd.x_index(2)))
    assert contains(inder, d)
    eta = odd_der_eta(kd, [0, 0, 1, 0, 0])
    assert contains(inder, eta) or contains(derivation_algebra(kd.alg), eta)
