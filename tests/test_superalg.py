"""Structure-constant superalgebras: validation, identity checks,
derivation predicates.  Several checks are replayed against slow
triple-loop oracles written independently of the library code."""

import numpy as np
import pytest

from ckder import (FieldSpec, LinearMap, SuperAlgebra, check_jordan_super,
                   check_supercommutative, inner_derivation, is_automorphism,
                   is_derivation, is_homomorphism, is_isomorphism,
                   kantor_double, quadratic_jordan, rank, super_commutator,
                   truncated_poly, vector_parity)
from ckder.derivations import _mult_matrix
from ckder.linalg import asfield
from ckder.superalg import annihilator, center_even

F5 = FieldSpec(5)


def dual_numbers(field):
    """F[t]/(t^2) as a purely even test algebra with basis (1, t)."""
    table = ([0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 1, 1])
    return SuperAlgebra(field, 2, 0, ["1", "t"], table, unit_index=0)


def test_multiply_and_left_mult():
    a = dual_numbers(F5)
    one, t = a.basis_vector(0), a.basis_vector(1)
    assert np.array_equal(a.multiply(t, t), [0, 0])
    assert np.array_equal(a.multiply(one + t, one + t), [1, 2])
    lt = a.left_mult(t)
    assert lt.parity == 0
    assert np.array_equal(lt(one), t)
    assert np.array_equal(lt(t), [0, 0])


def test_products_refuse_contractions_beyond_the_exact_range():
    # at p = 67108859 one product of two reduced elements per entry is
    # exact and two are not; left_mult, _mult_matrix and multiply join
    # the factor with the table, so they refuse only a key that really
    # receives two terms
    big = FieldSpec(67108859)
    q = big.p - 1

    def table(n, i):
        # e_i e0 = q e0 for each i given; the others multiply to zero
        return SuperAlgebra(big, n, 0, [f"e{m}" for m in range(n)],
                            (i, [0] * len(i), [0] * len(i), [q] * len(i)))

    one = table(1, [0])
    assert one.left_mult([q]).matrix.tolist() == [[1]]
    assert _mult_matrix(one, [q]).tolist() == [[1]]
    assert one.multiply([q], [q]).tolist() == [q]
    # q e0 + q e1 times e0 is (q q + q q) e0: two terms on one key
    two = table(2, [0, 1])
    for call in (lambda: two.left_mult([q, q]),
                 lambda: _mult_matrix(two, [q, q]),
                 lambda: two.multiply([q, q], [1, 0])):
        with pytest.raises(ValueError, match="exact range"):
            call()
    # the same calls are exact over a small field
    small = SuperAlgebra(F5, 2, 0, ["e0", "e1"], ([0], [0], [0], [4]))
    assert small.left_mult([4, 0]).matrix.tolist() == [[1, 0], [0, 0]]
    assert _mult_matrix(small, [4, 0]).tolist() == [[1, 0], [0, 0]]
    assert small.multiply([4, 0], [4, 0]).tolist() == [4, 0]


def test_validation_rejects_bad_tables():
    # a declared unit that does not act as one
    table = ([0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="unit"):
        SuperAlgebra(F5, 2, 0, ["1", "t"], table, unit_index=1)
    # even * even landing in the odd part
    with pytest.raises(ValueError, match="parity"):
        SuperAlgebra(F5, 1, 1, ["a", "b"], ([0], [0], [1], [1]))
    # a product term that breaks a declared fine grading
    with pytest.raises(ValueError, match="grading"):
        SuperAlgebra(F5, 2, 0, ["a", "b"], ([0], [0], [1], [1]),
                     fine_label=[(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="label count"):
        SuperAlgebra(F5, 2, 0, ["a"], ([], [], [], []))
    # the same (i, j, k) twice, even with values that add up to zero
    for vals in ([1, 1], [1, 4]):
        with pytest.raises(ValueError, match=r"\(0, 0\) names e_1 twice"):
            SuperAlgebra(F5, 2, 0, ["a", "b"], ([0, 0], [0, 0], [1, 1], vals))
    # an index outside [0, n), on either side of the range
    for k in (-1, 2):
        with pytest.raises(ValueError, match=r"\(0, 0\).*outside \[0, 2\)"):
            SuperAlgebra(F5, 2, 0, ["a", "b"], ([0], [0], [k], [1]))
    with pytest.raises(ValueError, match=r"\(0, 2\).*outside"):
        SuperAlgebra(F5, 2, 0, ["a", "b"], ([0], [2], [0], [1]))
    # the same faults arriving through JSON
    obj = dual_numbers(F5).to_json()
    obj["products"][0][2].append([0, [2]])
    with pytest.raises(ValueError, match="twice"):
        SuperAlgebra.from_json(obj)
    obj["products"][0][2][-1][0] = 5
    with pytest.raises(ValueError, match="outside"):
        SuperAlgebra.from_json(obj)


def test_vector_parity():
    kd = kantor_double(truncated_poly(F5))
    a = kd.alg
    assert vector_parity(a, a.basis_vector(kd.z_index(0))) == 0
    assert vector_parity(a, a.basis_vector(kd.x_index(2))) == 1
    assert vector_parity(a, np.zeros(a.n)) == 0
    mixed = a.basis_vector(0) + a.basis_vector(kd.x_index(0))
    with pytest.raises(ValueError):
        vector_parity(a, mixed)


def test_supercommutative_check_and_witness():
    assert check_supercommutative(dual_numbers(F5))
    # tamper with one order of one product
    bad = SuperAlgebra(F5, 2, 0, ["1", "t"],
                       ([0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 1, 2]))
    v = check_supercommutative(bad)
    assert not v
    assert v.witness["pair"] == [0, 1]


def slow_jordan_check(a):
    """Reference implementation of the operator form of the Jordan
    superidentity, with no shared code beyond multiply()."""
    n = a.n
    par = [a.parity(i) for i in range(n)]
    basis = [a.basis_vector(i) for i in range(n)]

    def d_op(u, v, pu, pv, w):
        uvw = a.multiply(u, a.multiply(v, w))
        vuw = a.multiply(v, a.multiply(u, w))
        s = -1 if pu and pv else 1
        return uvw - s * vuw

    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    s1 = -1 if par[x] and par[z] else 1
                    s2 = -1 if par[y] and par[x] else 1
                    s3 = -1 if par[z] and par[y] else 1
                    yz = a.multiply(basis[y], basis[z])
                    zx = a.multiply(basis[z], basis[x])
                    xy = a.multiply(basis[x], basis[y])
                    t1 = d_op(basis[x], yz, par[x], (par[y] + par[z]) % 2,
                              basis[w])
                    t2 = d_op(basis[y], zx, par[y], (par[z] + par[x]) % 2,
                              basis[w])
                    t3 = d_op(basis[z], xy, par[z], (par[x] + par[y]) % 2,
                              basis[w])
                    total = np.round(np.real(s1 * t1 + s2 * t2 + s3 * t3)
                                     ).astype(np.int64) % a.field.p
                    if np.any(total):
                        return False, (x, y, z)
    return True, None


def test_jordan_check_against_slow_oracle():
    for alg in (quadratic_jordan(F5), kantor_double(truncated_poly(FieldSpec(3))).alg):
        fast = check_jordan_super(alg)
        slow_ok, _ = slow_jordan_check(alg)
        assert bool(fast) and slow_ok


def test_jordan_check_flags_a_tampered_table():
    kd = kantor_double(truncated_poly(FieldSpec(3)))
    obj = kd.alg.to_json()
    # corrupt a single structure constant: x * x picks up a unit term
    i = kd.x_index(0)
    obj["products"].append([i, i, [[kd.z_index(0), [1]]]])
    bad = SuperAlgebra.from_json(obj)
    fast = check_jordan_super(bad)
    slow_ok, slow_triple = slow_jordan_check(bad)
    assert not fast and not slow_ok
    assert fast.witness["triple"] == list(slow_triple)


def test_inner_derivation_frozen_values():
    kd = kantor_double(truncated_poly(F5))
    a = kd.alg
    x = a.basis_vector(kd.x_index(0))
    t = a.basis_vector(kd.z_index(1))
    d = inner_derivation(a, x, x)
    # D(x, x) doubles the negative of the differential on each copy of Z:
    # t^k -> -2k t^(k-1) and t^k x -> -2k t^(k-1) x
    for k in range(1, 5):
        img = d(a.basis_vector(kd.z_index(k)))
        want = np.zeros(a.n)
        want[kd.z_index(k - 1)] = (-2 * k) % 5
        assert np.array_equal(img, want)
    assert np.array_equal(d(t)[kd.z_index(0)], 3)
    assert is_derivation(a, d)
    # D(t, x) shears the odd part onto the even part coefficientwise
    dtx = inner_derivation(a, t, x)
    for k in range(5):
        img = dtx(a.basis_vector(kd.x_index(k)))
        assert np.array_equal(img, a.basis_vector(kd.z_index(k)))
    assert is_derivation(a, dtx)


def test_left_mult_is_usually_not_a_derivation():
    from ckder import cheng_kac
    ck = cheng_kac(truncated_poly(F5))
    w1 = ck.alg.basis_vector(ck.even_index(1, 0))
    v = is_derivation(ck.alg, ck.alg.left_mult(w1))
    assert not v
    assert "pair" in v.witness


def test_super_commutator_of_an_odd_map_with_itself():
    kd = kantor_double(truncated_poly(F5))
    a = kd.alg
    x = a.basis_vector(kd.x_index(0))
    lx = a.left_mult(x)
    assert lx.parity == 1
    sq = super_commutator(lx, lx)
    assert sq.parity == 0
    assert np.array_equal(sq.matrix, np.round(np.real(
        (lx.matrix @ lx.matrix) * 2)).astype(np.int64) % 5)


def test_homomorphism_and_automorphism_predicates():
    a = dual_numbers(F5)
    ident = LinearMap(a, a, 0, np.eye(2))
    assert is_homomorphism(ident)
    assert is_automorphism(ident)
    # t -> 2t rescales the nilpotent generator: still an automorphism
    assert is_automorphism(LinearMap(a, a, 0, np.diag([1, 2])))
    # t -> 1 + t is not even a homomorphism
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert not is_homomorphism(LinearMap(a, a, 0, m))
    # the zero map multiplies fine but kills the unit
    zero = LinearMap(a, a, 0, np.zeros((2, 2)))
    assert is_homomorphism(zero)
    assert not is_automorphism(zero)


def test_isomorphism_verdicts():
    a = dual_numbers(F5)
    assert is_isomorphism(LinearMap(a, a, 0, np.diag([1, 2])))
    # the zero map multiplies fine but is not bijective
    zero = LinearMap(a, a, 0, np.zeros((2, 2)))
    assert is_isomorphism(zero).witness == {"reason": "not bijective"}
    # F -> F[t]/(t^2), 1 -> 1: an injective homomorphism, not square
    scalars = SuperAlgebra(F5, 1, 0, ["1"], ([0], [0], [0], [1]),
                           unit_index=0)
    unit = LinearMap(scalars, a, 0, np.array([[1.0], [0.0]]))
    assert is_homomorphism(unit)
    assert is_isomorphism(unit).witness == {"reason": "not bijective"}
    # t -> 1 + t: the pair witness of is_homomorphism, unchanged
    shear = LinearMap(a, a, 0, np.array([[1.0, 1.0], [0.0, 1.0]]))
    v = is_isomorphism(shear)
    assert not v
    assert "pair" in v.witness
    assert v.witness == is_homomorphism(shear).witness


def square_map(rng, field, kind, n):
    """An n x n matrix of one kind: monomial (one nonzero per row and
    column), two-cell rows, dense, singular (dense with one row a
    combination of the others) or zero."""
    def nonzero(shape):
        x = rng.integers(1, field.p, size=shape).astype(np.complex128)
        if field.ext:
            x += 1j * rng.integers(0, field.p, size=shape)
        return x
    m = np.zeros((n, n), dtype=np.complex128)
    if kind == "monomial":
        m[np.arange(n), rng.permutation(n)] = nonzero(n)
    elif kind == "two-cell":
        for row in m:
            row[rng.choice(n, size=min(n, 2), replace=False)] = \
                nonzero(min(n, 2))
    elif kind in ("dense", "singular"):
        m = nonzero((n, n))
        if kind == "singular":
            m[0] = nonzero(n - 1) @ m[1:] if n > 1 else 0
    return asfield(field, m)


@pytest.mark.parametrize("field", [F5, FieldSpec(3, ext=True)], ids=str)
@pytest.mark.parametrize("kind", ["monomial", "two-cell", "dense",
                                  "singular", "zero"])
def test_bijectivity_verdict_agrees_with_the_dense_rank(field, kind):
    """Over an algebra with no products every map is a homomorphism, so
    is_isomorphism, which reads the matrix as a sparse system, judges
    bijectivity alone; it must agree with the dense rank."""
    rng = np.random.default_rng(list(kind.encode()) + [field.order])
    verdicts = set()
    for _ in range(30):
        n = int(rng.integers(1, 25))
        a = SuperAlgebra(field, n, 0, [f"e{i}" for i in range(n)],
                         ((), (), (), ()))
        m = square_map(rng, field, kind, n)
        v = is_isomorphism(LinearMap(a, a, 0, m))
        assert bool(v) == (rank(field, m) == n)
        assert v.witness is None if v else \
            v.witness == {"reason": "not bijective"}
        verdicts.add(bool(v))
    if kind == "monomial":
        assert verdicts == {True}
    if kind in ("singular", "zero"):
        assert verdicts == {False}
    if kind == "two-cell":
        assert verdicts == {True, False}


def test_annihilator_and_center_of_dual_numbers():
    a = dual_numbers(F5)
    ann = annihilator(a, [a.basis_vector(0)])
    assert ann.dim == 0
    ann_t = annihilator(a, [a.basis_vector(1)])
    assert ann_t.dim == 1 and ann_t.contains_vector([0, 1])
    assert center_even(a).dim == 2


def test_json_round_trip_preserves_products():
    kd = kantor_double(truncated_poly(F5))
    back = SuperAlgebra.from_json(kd.alg.to_json())
    assert back.products == kd.alg.products
    for got, want in zip(back.coo(), kd.alg.coo()):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert back.labels == kd.alg.labels
    assert back.unit_index == kd.alg.unit_index
    assert back.dim_even == kd.alg.dim_even and back.dim_odd == kd.alg.dim_odd
