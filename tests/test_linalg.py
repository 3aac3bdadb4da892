"""Exact linear algebra over small fields: RREF, kernels, subspaces."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ckder import (DerivationSpace, FieldError, FieldSpec, LinearMap,
                   RunContext, inner_derivation_algebra, kantor_double,
                   truncated_poly)
from ckder import linalg, superalg
from ckder.linalg import (Eliminator, Subspace, amod, exact_terms, inverse,
                          kernel, matrix_from_json, matrix_to_json, mm, rank,
                          rref, solve_right)

F5 = FieldSpec(5)
F9 = FieldSpec(3, ext=True)


def rand_mat(rng, field, m, n):
    a = rng.integers(0, field.p, size=(m, n)).astype(np.complex128)
    if field.ext:
        a = a + 1j * rng.integers(0, field.p, size=(m, n))
    return a


def test_rref_frozen_examples():
    r, rk, piv = rref(F5, [[1, 2]])
    assert np.array_equal(r, [[1, 2]])
    assert rk == 1 and piv == [0]

    # second row is a multiple of the first
    r, rk, piv = rref(F5, [[2, 4], [1, 2]])
    assert np.array_equal(r, [[1, 2]])
    assert rk == 1

    r, rk, piv = rref(F5, [[0, 3], [2, 0]])
    assert np.array_equal(r, np.eye(2))
    assert rk == 2 and piv == [0, 1]

    r, rk, piv = rref(F5, np.zeros((3, 2)))
    assert r.shape == (0, 2) and rk == 0 and piv == []

    # leading coefficients are normalized to 1 in the extension too
    r, rk, _ = rref(F9, [[complex(0, 1), 1]])
    assert np.array_equal(r, [[1, complex(0, 2)]])


def test_rank_and_kernel_frozen():
    assert rank(F5, [[1, 2], [3, 6]]) == 1
    k = kernel(F5, [[1, 1]])
    assert k.dim == 1
    assert k.contains_vector([1, 4])
    assert k.contains_vector([2, 3])
    assert not k.contains_vector([1, 1])
    assert kernel(F5, np.eye(3)).dim == 0


def test_solve_right():
    a = [[1, 2], [0, 1]]
    x = solve_right(F5, a, [0, 1])
    assert np.array_equal(amod(F5, np.asarray(a) @ x), [0, 1])
    assert solve_right(F5, [[1, 1], [2, 2]], [0, 1]) is None
    # multiple right-hand sides at once
    xs = solve_right(F5, a, np.eye(2))
    assert np.array_equal(amod(F5, np.asarray(a) @ xs), np.eye(2))


def test_inverse():
    m = [[1, 1], [0, 1]]
    assert np.array_equal(inverse(F5, m), [[1, 4], [0, 1]])
    with pytest.raises(ValueError):
        inverse(F5, [[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        inverse(F5, np.zeros((2, 3)))


def test_subspace_operations_frozen():
    a = Subspace(F5, 3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace(F5, 3, [[0, 1, 0], [0, 0, 1]])
    assert a.dim == 2 and b.dim == 2
    assert a.sum(b).dim == 3
    cap = a.intersect(b)
    assert cap.dim == 1
    assert cap.contains_vector([0, 1, 0])
    assert not a.is_direct_sum(b)
    c = Subspace(F5, 3, [[0, 0, 2]])
    assert a.is_direct_sum(c)
    assert a.sum(c).equals(Subspace(F5, 3, np.eye(3)))
    co = a.coords_of([2, 3, 0])
    assert np.array_equal(co, [2, 3])
    assert a.coords_of([0, 0, 1]) is None
    # rows are taken one by one, and one row outside is enough for None
    assert np.array_equal(a.coords_of([[2, 3, 0], [0, 1, 0]]), [[2, 3], [0, 1]])
    assert a.coords_of([[2, 3, 0], [0, 0, 1]]) is None
    # unreduced input: reduced coordinates in the span, None outside it
    co = a.coords_of([7, -2, 10])
    assert np.array_equal(co, [2, 3]) and co.dtype == np.float64
    assert a.coords_of([7, -2, 11]) is None
    assert Subspace(F5, 3).coords_of([[0, 0, 0]]).shape == (1, 0)


@pytest.mark.parametrize("field", [FieldSpec(3), F5, FieldSpec(13), F9])
def test_rank_nullity_random(field):
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        m, n = rng.integers(1, 9, size=2)
        a = rand_mat(rng, field, m, n)
        assert rank(field, a) + kernel(field, a).dim == n
        # every reported kernel row really is annihilated
        k = kernel(field, a)
        if k.dim:
            assert not np.any(amod(field, k.basis @ a.T))


@pytest.mark.parametrize("field", [F5, F9])
def test_rref_is_idempotent_random(field):
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = rng.integers(1, 8, size=2)
        r, rk, piv = rref(field, rand_mat(rng, field, m, n))
        r2, rk2, piv2 = rref(field, r)
        assert np.array_equal(r, r2)
        assert rk == rk2 and piv == piv2


@pytest.mark.parametrize("field", [F5, F9])
def test_inverse_random(field):
    rng = np.random.default_rng(99)
    done = 0
    while done < 15:
        n = int(rng.integers(1, 7))
        a = rand_mat(rng, field, n, n)
        if rank(field, a) < n:
            continue
        done += 1
        b = inverse(field, a)
        assert np.array_equal(amod(field, a @ b), np.eye(n))
        assert np.array_equal(amod(field, b @ a), np.eye(n))


@pytest.mark.parametrize("p", [3, 5, 7, 13, 103])
def test_amod_matches_exact_integer_remainder(p):
    """The float reduction equals Python's integer % on every value the
    linalg docstring allows (|x| < 2**52), for float64 and complex128,
    and never returns -0.0.  103 is the smallest odd prime with
    p * fl(1/p) < 1, where a quotient formed as x * fl(1/p) floors p
    itself one low; amod divides, x / p, which is correctly rounded, so
    p / p is exactly 1."""
    field = FieldSpec(p)
    bound = 2 ** 52 - 1
    rng = np.random.default_rng(p)
    top = bound // p * p
    ints = [0, 1, -1, bound, -bound, top, -top, top - 1, -top + 1]
    ints += list(range(-3 * p, 3 * p + 1))                # small, incl. +-p
    ints += [int(k) * p for k in rng.integers(-(bound // p), bound // p,
                                              size=500)]  # exact multiples
    ints += [int(k) * p + d for k in rng.integers(-(bound // p) + 1,
                                                  bound // p, size=200)
             for d in (-1, 1)]                            # next to them
    ints += [int(x) for x in rng.integers(-bound, bound, size=2000)]
    ints += [int(x) for x in rng.integers(-10 ** 6, 10 ** 6, size=2000)]
    assert all(abs(x) <= bound for x in ints)
    want = np.asarray([x % p for x in ints], dtype=np.float64)
    x = np.asarray(ints, dtype=np.float64)
    assert [int(v) for v in x] == ints                    # exact in float64

    got = amod(field, x)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert not np.any(np.signbit(got))
    assert np.array_equal(x, np.asarray(ints, dtype=np.float64))  # input kept

    z = x + 1j * x[::-1]
    got = amod(field, z)
    assert got.dtype == np.complex128
    assert np.array_equal(got.real, want)
    assert np.array_equal(got.imag, want[::-1])
    assert not np.any(np.signbit(got.real))
    assert not np.any(np.signbit(got.imag))

    # negative zero in, positive zero out; scalars stay scalars
    assert not np.signbit(amod(field, -0.0))
    assert amod(field, complex(-1, -p)) == complex(p - 1, 0)
    assert np.ndim(amod(field, -1.0)) == 0
    assert np.ndim(amod(field, complex(-1, -p))) == 0

    # strided input: a transpose, a step slice and a column slice
    m = z[:z.size // 2 * 2].reshape(-1, 2)
    want_m = np.asarray([complex(int(v.real) % p, int(v.imag) % p)
                         for v in m.ravel()]).reshape(m.shape)
    for view, expect in ((m.T, want_m.T), (z[::2], amod(field, z)[::2]),
                         (m[:, 1], want_m[:, 1]), (m.real.T, want_m.real.T)):
        kept = view.copy()
        got = amod(field, view)
        assert got.shape == view.shape and got.dtype == view.dtype
        assert np.array_equal(got, expect)
        assert np.array_equal(view, kept)


def test_amod_is_exact_near_the_range_limit_for_the_largest_prime():
    """At p = 67108859, the largest prime below 2**26, every value within
    a few p of +-(2**52 - 1), and of the multiples of p next to it,
    reduces to Python's integer %: the quotient x / p is correctly
    rounded and the floor needs no correction."""
    p = 67108859
    field = FieldSpec(p)
    bound = 2 ** 52 - 1
    top = bound // p * p
    near = [x + d for x in (bound, top, top - p, bound - p)
            for d in range(-2 * p, 1, 997)]
    near += [x + d for x in (top, top - p) for d in range(-3, 4)]
    ints = [x for x in near if abs(x) <= bound]
    ints += [-x for x in ints]
    want = np.asarray([x % p for x in ints], dtype=np.float64)
    x = np.asarray(ints, dtype=np.float64)
    assert [int(v) for v in x] == ints
    got = amod(field, x)
    assert np.array_equal(got, want)
    assert not np.any(np.signbit(got))
    got = amod(field, x + 1j * x[::-1])
    assert np.array_equal(got.real, want)
    assert np.array_equal(got.imag, want[::-1])


def test_eliminator_matches_one_shot_rref():
    rng = np.random.default_rng(123)
    for field in (F5, F9):
        for _ in range(10):
            m, n = int(rng.integers(2, 12)), int(rng.integers(1, 7))
            a = rand_mat(rng, field, m, n)
            elim = Eliminator(field, n)
            # feed the rows in two chunks to exercise the incremental path
            cut = m // 2
            elim.add_rows(a[:cut])
            elim.add_rows(a[cut:])
            r, piv = elim.rref()
            r1, _, piv1 = rref(field, a)
            assert np.array_equal(r, r1)
            assert list(piv) == list(piv1)


def oracle_rref(field, rows):
    """Gauss-Jordan mod p on Python ints, one element a0 + a1*u as the
    pair (a0, a1) with u^2 = -1 (a1 = 0 over F_p); returns the canonical
    rows as a field array and the pivot columns."""
    p = field.p

    def mul(x, y):
        return ((x[0] * y[0] - x[1] * y[1]) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    def axpy(a, x, y):   # y - a x
        out = []
        for xi, yi in zip(x, y):
            ax = mul(a, xi)
            out.append(((yi[0] - ax[0]) % p, (yi[1] - ax[1]) % p))
        return out

    out, piv = [], []
    for row in rows:
        row = [(round(v.real) % p, round(v.imag) % p) for v in row]
        for prow, c in zip(out, piv):
            if row[c] != (0, 0):
                row = axpy(row[c], prow, row)
        lead = next((c for c, v in enumerate(row) if v != (0, 0)), None)
        if lead is None:
            continue
        inv = field.inv(complex(*row[lead]))
        row = [mul((round(inv.real), round(inv.imag)), v) for v in row]
        out = [axpy(r[lead], row, r) if r[lead] != (0, 0) else r
               for r in out]
        out.append(row)
        piv.append(lead)
    order = sorted(range(len(piv)), key=piv.__getitem__)
    mat = np.asarray([[complex(*out[i][c]) for c in range(len(rows[0]))]
                      for i in order], dtype=np.complex128)
    return field.array(mat.reshape(len(order), len(rows[0]))), \
        [piv[i] for i in order]


def assert_rref_matches_oracle(field, a):
    """rref, rank and Subspace on a, against the integer oracle: the
    same rows bitwise, the same pivots and the same rank."""
    want, want_piv = oracle_rref(field, a)
    r, rk, piv = rref(field, a)
    assert np.array_equal(r, want) and r.dtype == field.dtype
    assert r.shape == want.shape and piv == want_piv
    assert rk == len(want_piv) == rank(field, a)
    s = Subspace(field, a.shape[1], a)
    assert np.array_equal(s.basis, want) and s.pivots == want_piv


@pytest.mark.parametrize("field", [F5, F9], ids=str)
def test_rref_on_the_columns_in_use_matches_the_oracle(field):
    """Matrices with zero columns, zero rows, no zero column at all, and
    the all-zero matrix give the oracle's RREF."""
    rng = np.random.default_rng(16)
    for _ in range(40):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        a = rand_mat(rng, field, m, n)
        a[:, rng.random(n) < 0.6] = 0
        a[rng.random(m) < 0.3] = 0
        assert_rref_matches_oracle(field, a)
    assert_rref_matches_oracle(field, rand_mat(rng, field, 5, 6))
    assert_rref_matches_oracle(field, np.zeros((3, 7)))
    r, rk, piv = rref(field, np.zeros((0, 4)))
    assert r.shape == (0, 4) and rk == 0 and piv == []


def test_der_j_is_canonicalized_on_the_columns_in_use(monkeypatch):
    """At p = 3 the flattened maps of Der(J) over F9 have n^2 = 576
    columns.  Spanned by the chains b0 + b1, b1 + b2, ..., b_last of its
    basis maps, each parity is one connected block, and only the columns
    where some basis map is nonzero reach the eliminator that
    canonicalizes it.  The canonical basis itself is a block of one row
    per map, scaled without an eliminator."""
    widths = []

    class Recording(Eliminator):
        def __init__(self, field, ncols):
            widths.append(ncols)
            super().__init__(field, ncols)

    ctx = RunContext(3)
    a, der = ctx.ck(F9, "w").alg, ctx.der_j(F9, "w")
    monkeypatch.setattr(superalg, "Eliminator", Recording)
    assert DerivationSpace(a, der.even_basis, der.odd_basis,
                           validate=False).equals(der)
    assert widths == []

    def chain(basis):
        return [LinearMap(a, a, d.parity, amod(F9, d.matrix + e.matrix))
                for d, e in zip(basis, basis[1:])] + basis[-1:]

    again = DerivationSpace(a, chain(der.even_basis), chain(der.odd_basis),
                            validate=False)
    assert again.equals(der)
    in_use = [int(np.any([d.matrix for d in basis], axis=0).sum())
              for basis in (der.even_basis, der.odd_basis)]
    assert widths == in_use
    assert max(widths) < a.n ** 2 == 576


def ragged_system(rng, field, m, n=40, k=34):
    """m rows of length n of rank at most k: row i mixes only the first
    4 + (k - 4) i / m rows of a base with six zero columns, so new
    pivots keep turning up late; then some rows are zeroed and some
    duplicated."""
    base = rand_mat(rng, field, k, n)
    base[:, rng.choice(n, size=6, replace=False)] = 0
    coef = rand_mat(rng, field, m, k)
    for i in range(m):
        coef[i, 4 + (k - 4) * i // m:] = 0
    rows = amod(field, coef @ base)
    rows[rng.choice(m, size=m // 10, replace=False)] = 0
    dup = rng.choice(m, size=(m // 10, 2), replace=False)
    rows[dup[:, 0]] = rows[dup[:, 1]]
    return rows


def echelon_rows(rng, field, leads, n, dense=False):
    """One row per lead: zero before it, a nonzero there and random
    after it; with dense=True every entry after the lead is nonzero."""
    rows = rand_mat(rng, field, len(leads), n)
    if dense:
        rows = amod(field, rows + field.array(
            np.where(rows == 0, 1, 0)))
    for i, c in enumerate(leads):
        rows[i, :c] = 0
        if rows[i, c] == 0:
            rows[i, c] = 1
    return rows


def shaped_system(rng, field, kind, n=100):
    """Rows of one shape of lead structure.

    chain-L: L rows with distinct leads whose entries in the lead
    columns are all nonzero, so that every pivot meets all the others,
    then 30 rows with leads among those columns and 20 combinations of
    the L rows.  vanish: 24 rows with distinct leads, then 40
    combinations of them, which vanish, and 10 rows that survive them.
    one-round: 60 rows with distinct leads and nothing else."""
    name, _, size = kind.partition("-")
    if name == "chain":
        length = int(size)
        leads = np.sort(rng.choice(n - 1, size=length, replace=False))
        chain = echelon_rows(rng, field, leads, n, dense=True)
        late = echelon_rows(rng, field, rng.choice(leads, size=30), n)
        mix = amod(field, rand_mat(rng, field, 20, length) @ chain)
        return np.vstack([chain, late, mix])
    if name == "vanish":
        leads = np.sort(rng.choice(n, size=24, replace=False))
        picked = echelon_rows(rng, field, leads, n)
        combos = amod(field, rand_mat(rng, field, 40, 24) @ picked)
        survive = echelon_rows(rng, field, rng.choice(leads, size=10), n)
        return np.vstack([picked, combos, survive])
    assert name == "one"
    leads = rng.choice(n, size=60, replace=False)
    return echelon_rows(rng, field, leads, n)


SHAPED = ("chain-8", "chain-9", "chain-64", "chain-65", "vanish",
          "one-round")


@pytest.mark.parametrize("field", [F5, F9], ids=str)
@pytest.mark.parametrize("system", [127, 128, 129, 300, *SHAPED])
def test_eliminator_matches_integer_oracle_across_chunks(field, system):
    """Ragged systems of 127 to 300 rows, and systems of one shape of
    lead structure, fed in one block, in several blocks and in shuffled
    order, give bitwise the rows and pivots of a plain integer
    Gauss-Jordan."""
    if isinstance(system, int):
        rng = np.random.default_rng(system)
        rows = ragged_system(rng, field, system)
    else:
        rng = np.random.default_rng(list(system.encode()))
        rows = shaped_system(rng, field, system)
    m = rows.shape[0]
    want, want_piv = oracle_rref(field, rows)
    assert 0 < len(want_piv) < rows.shape[1]
    cuts = sorted(rng.choice(np.arange(1, m), size=4, replace=False))
    feeds = {"one block": [rows],
             "blocks": np.split(rows, [1, *cuts]),
             "shuffled": np.split(rows[rng.permutation(m)], [m // 3])}
    for how, blocks in feeds.items():
        elim = Eliminator(field, rows.shape[1])
        for block in blocks:
            elim.add_rows(block)
        got, piv = elim.rref()
        assert np.array_equal(got, want), how
        assert got.dtype == field.dtype and list(piv) == want_piv, how
        assert elim.rank == len(want_piv), how


def _fed(field, *blocks):
    elim = Eliminator(field, 3)
    for block in blocks:
        elim.add_rows(block)
    return elim


def test_eliminator_refuses_contractions_beyond_the_exact_range():
    # (p-1)^2 + p < 2**52 <= 2 (p-1)^2: one product per entry is exact,
    # two are not.  The eliminator makes one product per entry and step,
    # so every feed over F_p is exact, whatever the rank
    big = FieldSpec(67108859)
    feeds = ([[[1, 0, 0], [0, 1, 0]], [[1, 1, 1]]],
             [[[1, 1, 0]], [[big.p - 1, 0, 1]]],
             [[[1, 1, 1]], [[0, 1, 0], [0, 0, 1]]])
    for blocks in feeds:
        want, want_piv = oracle_rref(big, np.vstack(blocks))
        got, piv = _fed(big, *blocks).rref()
        assert np.array_equal(got, want) and piv == want_piv
    # over F_{p^2} one product takes two terms per component, so the
    # eliminator refuses at once, even a single row
    ext = FieldSpec(67108859, ext=True)
    assert exact_terms(ext) == 0
    with pytest.raises(ValueError, match="exact range"):
        Eliminator(ext, 2).add_rows([[1, 2]])
    for blocks in feeds:
        with pytest.raises(ValueError, match="exact range"):
            _fed(ext, *blocks)
    # the same feeds are exact over a small field
    elim = _fed(FieldSpec(3), [[1, 0, 0], [0, 1, 0]], [[1, 1, 1]])
    assert elim.rank == 3


def test_eliminator_rounds_stay_within_a_capped_exact_range(monkeypatch):
    """At p = 38745307 a reduced element takes 3 products and stays
    exact, fewer than the rank of the system; fed in one block and in
    two blocks either way round, the result equals the integer oracle
    and no value reaching amod leaves the exact range."""
    field = FieldSpec(38745307)
    assert exact_terms(field) == 3
    peak = []
    reduce = linalg.amod
    monkeypatch.setattr(linalg, "amod", lambda f, a: peak.append(
        np.abs(np.asarray(a).view(np.float64)).max(initial=0)) or reduce(f, a))
    # rank 6 in 40 x 12, in Python ints: row r mixes the base rows from
    # 3 + r % 3 on if r < 20, and from r % 6 on otherwise
    rng = np.random.default_rng(12)
    p = field.p
    base = [[0] * (2 * i) + [int(x) for x in rng.integers(1, p, 12 - 2 * i)]
            for i in range(6)]
    rows = []
    for r in range(40):
        start = 3 + r % 3 if r < 20 else r % 6
        coef = [0] * start + [int(x) for x in rng.integers(1, p, 6 - start)]
        rows.append([sum(c * b[j] for c, b in zip(coef, base)) % p
                     for j in range(12)])
    rows = np.asarray(rows, dtype=np.float64)
    rows[[7, 32]] = 0
    want, want_piv = oracle_rref(field, rows)
    assert len(want_piv) == 6
    # the last order feeds a second block against six pivot rows
    for blocks in ([rows], [rows[:20], rows[20:]], [rows[20:], rows[:20]]):
        elim = Eliminator(field, 12)
        for block in blocks:
            elim.add_rows(block)
        got, piv = elim.rref()
        assert np.array_equal(got, want) and list(piv) == want_piv
    assert max(peak) < 2 ** 52


@st.composite
def fed_systems(draw):
    """A field, a system of rows of low rank over it, made in Python
    ints, and a feed of it: the rows in a drawn order, cut into drawn
    blocks, some of them empty."""
    field = draw(st.sampled_from(
        [F5, F9, FieldSpec(38745307), FieldSpec(67108859)]))
    p = field.p
    part = st.integers(0, p - 1)
    scalar = st.one_of(st.just((0, 0)), st.tuples(
        part, part if field.ext else st.just(0)))
    n, k, m = draw(st.integers(1, 8)), draw(st.integers(1, 6)), \
        draw(st.integers(1, 12))
    base = draw(st.lists(st.lists(scalar, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    coef = draw(st.lists(st.lists(scalar, min_size=k, max_size=k),
                         min_size=m, max_size=m))
    rows = [[complex(sum(c[0] * b[j][0] - c[1] * b[j][1]
                         for c, b in zip(cs, base)) % p,
                     sum(c[0] * b[j][1] + c[1] * b[j][0]
                         for c, b in zip(cs, base)) % p)
             for j in range(n)] for cs in coef]
    rows = field.array(np.asarray(rows, dtype=np.complex128))
    order = draw(st.permutations(range(m)))
    cuts = sorted(draw(st.lists(st.integers(0, m), max_size=4)))
    return field, rows, np.split(rows[order], cuts)


@given(fed_systems())
def test_eliminator_matches_the_oracle_in_any_feed(system):
    """Random systems of low rank over F5, F9 and two primes whose
    reduced elements take 3 and 1 products within the exact range, fed
    in random blocks and orders, give bitwise the oracle's RREF."""
    field, rows, blocks = system
    want, want_piv = oracle_rref(field, rows)
    elim = Eliminator(field, rows.shape[1])
    for block in blocks:
        elim.add_rows(block)
    got, piv = elim.rref()
    assert np.array_equal(got, want) and got.dtype == field.dtype
    assert piv == want_piv and elim.rank == len(want_piv)


def test_subspace_and_mm_refuse_contractions_beyond_the_exact_range():
    # at p = 67108859 one product per entry is exact and two are not;
    # the contraction length is the subspace dimension, or the inner
    # dimension of mm
    big = FieldSpec(67108859)
    q = big.p - 1
    one = Subspace(big, 3, [[1, 0, 1]])
    two = Subspace(big, 3, [[1, 0, 0], [0, 1, 0]])
    assert two.dim == 2
    assert np.array_equal(one.residual([q, 2, q]), [0, 2, 0])
    assert np.array_equal(one.coords_of([q, 0, q]), [q])
    assert np.array_equal(mm(big, [[q]], [[q, 1]]), [[1, q]])
    for call in (lambda: two.residual([q, 2, q]),
                 lambda: two.coords_of([q, q, 0]),
                 lambda: mm(big, [[q, q]], [[q], [q]])):
        with pytest.raises(ValueError, match="exact range"):
            call()
    # the same calls are exact over a small field
    f3 = FieldSpec(3)
    assert Subspace(f3, 3, [[1, 0, 0], [0, 1, 0]]).coords_of(
        [2, 2, 0]).tolist() == [2, 2]
    assert mm(f3, [[2, 2]], [[2], [2]]).tolist() == [[2]]


def test_eliminator_kernel_rows():
    elim = Eliminator(F5, 3)
    elim.add_rows(np.asarray([[1, 2, 3]], dtype=np.complex128))
    k = elim.kernel_rows()
    assert k.shape[0] == 2
    assert not np.any(amod(F5, k @ np.asarray([[1, 2, 3]], dtype=np.complex128).T))


@pytest.mark.parametrize("field", [F5, F9])
def test_subspace_dimension_formula_random(field):
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        a = Subspace(field, n, rand_mat(rng, field, int(rng.integers(1, 5)), n))
        b = Subspace(field, n, rand_mat(rng, field, int(rng.integers(1, 5)), n))
        s, cap = a.sum(b), a.intersect(b)
        assert s.dim + cap.dim == a.dim + b.dim
        assert s.contains(a) and s.contains(b)
        assert a.contains(cap) and b.contains(cap)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(5)
    for field in (F5, F9):
        a = rand_mat(rng, field, 3, 4)
        blob = matrix_to_json(field, a)
        assert np.array_equal(matrix_from_json(field, blob), amod(field, a))


@pytest.mark.parametrize("field", [F5, FieldSpec(3), FieldSpec(7, ext=True)],
                         ids=str)
def test_every_result_has_the_field_dtype(field):
    """The field picks the dtype once: float64 over F_p, complex128 over
    F_p[u].  Integer input is cast to it, and every array handed back
    has it, whatever the input held."""
    want = np.float64 if not field.ext else np.complex128
    a = kantor_double(truncated_poly(field)).alg
    n = a.n
    assert a.coo()[3].dtype == want
    assert LinearMap(a, a, 0, np.eye(n, dtype=int)).matrix.dtype == want
    assert a.left_mult(a.basis_vector(1)).matrix.dtype == want
    m = [[1, 2, 0], [0, 1, 1]]
    assert Subspace(field, 3, m).basis.dtype == want
    assert Subspace(field, 3).basis.dtype == want
    assert rref(field, m)[0].dtype == want
    assert kernel(field, m).basis.dtype == want
    assert inverse(field, [[1, 1], [0, 1]]).dtype == want
    assert solve_right(field, [[1, 2], [0, 1]], [0, 1]).dtype == want
    e = Eliminator(field, 3)
    e.add_rows(np.asarray(m, dtype=np.float64))
    assert e.rref()[0].dtype == want
    assert e.kernel_rows().dtype == want
    assert inner_derivation_algebra(a).structure_constants().dtype == want
    assert field.dtype == want


@pytest.mark.parametrize("field", [F5, FieldSpec(3)], ids=str)
def test_prime_field_refuses_a_u_component(field):
    """A nonzero u component reaching a prime field is an error, never
    silently dropped; one that vanishes mod p is no u component."""
    row = np.asarray([[1, 1j, 0]])
    with pytest.raises(FieldError):
        Eliminator(field, 3).add_rows(row)
    with pytest.raises(FieldError):
        Subspace(field, 3, row)
    sub = Subspace(field, 3, [[1, 0, 0]])
    with pytest.raises(FieldError):
        sub.coords_of(row)
    with pytest.raises(FieldError):
        sub.residual(row)
    z = truncated_poly(field).z
    bad = np.eye(z.n, dtype=np.complex128)
    bad[0, 0] = 1j
    with pytest.raises(FieldError):
        LinearMap(z, z, 0, bad)
    e = Eliminator(field, 3)
    e.add_rows(np.asarray([[1, field.p * 1j, 0]]))
    assert e.rank == 1 and e.rref()[0].dtype == np.float64
