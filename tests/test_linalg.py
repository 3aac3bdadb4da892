"""Exact linear algebra over small fields: RREF, kernels, subspaces."""

import numpy as np
import pytest

from ckder import FieldSpec
from ckder.linalg import (Eliminator, Subspace, amod, inverse, kernel,
                          matrix_from_json, matrix_to_json, rank, rref,
                          solve_right)

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
    p * fl(1/p) < 1, where the floored quotient of p itself comes out
    one low and the correction step has to act."""
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
