"""The truncated polynomial algebra, its rank-2 double, and the full
rank-8 superalgebra in both distinguished bases."""

import numpy as np
import pytest

from ckder import (FieldError, FieldSpec, check_jordan_super,
                   check_supercommutative, cheng_kac, differential_from_json,
                   differential_to_json, is_homomorphism, kantor_double,
                   map_inverse, matrix_to_json, odd_part_squares_to_even,
                   quadratic_jordan, truncated_poly, w_to_v_change)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F9 = FieldSpec(3, ext=True)


def test_truncated_poly_structure():
    d = truncated_poly(F5)
    z = d.z
    assert z.n == 5 and z.dim_odd == 0
    assert z.unit_index == 0
    t = z.basis_vector(1)
    # t^2 * t^3 = 0, t^2 * t^2 = t^4
    assert np.array_equal(z.multiply(z.basis_vector(2), z.basis_vector(3)),
                          np.zeros(5))
    assert np.array_equal(z.multiply(z.basis_vector(2), z.basis_vector(2)),
                          z.basis_vector(4))
    # the differential: t^k -> k t^(k-1)
    for k in range(5):
        img = d.delta(z.basis_vector(k))
        want = np.zeros(5)
        if k:
            want[k - 1] = k
        assert np.array_equal(img, want)


def test_truncation_exponent_is_pinned_to_the_characteristic():
    assert truncated_poly(F5, 5).z.n == 5
    # with any other exponent delta(t^p) = p t^(p-1) would not vanish
    with pytest.raises(ValueError):
        truncated_poly(F5, 3)
    with pytest.raises(ValueError):
        truncated_poly(F3, 5)


def test_differential_json_rejects_corrupted_delta():
    blob = differential_to_json(truncated_poly(F3))
    # break the Leibniz rule: delta(1) = 1
    blob["delta"][0][0] = [1]
    with pytest.raises(ValueError, match="derivation"):
        differential_from_json(blob)


def test_quadratic_jordan_table():
    j = quadratic_jordan(F5)
    assert j.n == 4 and j.dim_odd == 0
    one = j.basis_vector(0)
    # squares follow the quadratic form of signature (1, 1, -1)
    for i, sq in ((1, 1), (2, 1), (3, -1)):
        wi = j.basis_vector(i)
        assert np.array_equal(j.multiply(wi, wi), sq % 5 * one)
        assert np.array_equal(j.multiply(one, wi), wi)
        for k in range(1, 4):
            if k != i:
                assert np.array_equal(j.multiply(wi, j.basis_vector(k)),
                                      np.zeros(4))
    assert check_jordan_super(j)


def test_kantor_double_products():
    kd = kantor_double(truncated_poly(F5))
    a = kd.alg
    assert a.dim_even == 5 and a.dim_odd == 5
    assert a.unit_index == kd.z_index(0)

    def z(k):
        return a.basis_vector(kd.z_index(k))

    def x(k):
        return a.basis_vector(kd.x_index(k))

    # (f x)(g x) = delta(f) g - f delta(g)
    assert np.array_equal(a.multiply(x(1), x(0)), z(0))
    assert np.array_equal(a.multiply(x(0), x(1)), (-1) % 5 * z(0))
    assert np.array_equal(a.multiply(x(0), x(0)), np.zeros(a.n))
    # delta(t^2) t^3 - t^2 delta(t^3) = 2 t^4 - 3 t^4 = -t^4
    assert np.array_equal(a.multiply(x(2), x(3)), (-1) % 5 * z(4))
    # Z acts on the odd part by multiplication
    assert np.array_equal(a.multiply(z(1), x(2)), x(3))
    assert np.array_equal(a.multiply(z(3), x(4)), np.zeros(a.n))
    assert check_supercommutative(a)
    assert check_jordan_super(a)


def test_kantor_double_is_jordan_at_p3():
    kd = kantor_double(truncated_poly(F3))
    assert check_supercommutative(kd.alg)
    assert check_jordan_super(kd.alg)


@pytest.mark.parametrize("p", [3, 5])
def test_big_superalgebra_shape(p):
    ck = cheng_kac(truncated_poly(FieldSpec(p)))
    a = ck.alg
    assert a.dim_even == 4 * p and a.dim_odd == 4 * p
    assert a.unit_index == ck.even_index(0, 0)
    assert a.fine_label is not None
    # families carry the four Z2 x Z2 labels, odd mirroring even
    for fam, want in ((0, (0, 0)), (1, (1, 0)), (2, (0, 1)), (3, (1, 1))):
        for k in range(p):
            assert a.fine_label[ck.even_index(fam, k)] == want
            assert a.fine_label[ck.odd_index(fam, k)] == want
    assert check_supercommutative(a)


def test_big_superalgebra_w_basis_products():
    ck = cheng_kac(truncated_poly(F5))
    a = ck.alg

    def e(fam, k):
        return a.basis_vector(ck.even_index(fam, k))

    def o(fam, k):
        return a.basis_vector(ck.odd_index(fam, k))

    # squares follow the form (1, 1, -1); distinct w cross products vanish
    for fam, sq in ((1, 1), (2, 1), (3, -1)):
        assert np.array_equal(a.multiply(e(fam, 0), e(fam, 0)),
                              sq % 5 * e(0, 0))
    assert np.array_equal(a.multiply(e(1, 1), e(1, 0)), e(0, 1))
    assert np.array_equal(a.multiply(e(1, 0), e(2, 0)), np.zeros(a.n))
    assert np.array_equal(a.multiply(e(1, 1), e(2, 1)), np.zeros(a.n))
    # Z multiplies coefficients in every family
    assert np.array_equal(a.multiply(e(0, 1), e(1, 1)), e(1, 2))
    assert np.array_equal(a.multiply(e(0, 1), o(1, 1)), o(1, 2))
    # (f w_i)(g x) = delta(f) g x_i, so it vanishes unless f has a slope
    assert np.array_equal(a.multiply(e(1, 0), o(0, 0)), np.zeros(a.n))
    assert np.array_equal(a.multiply(e(1, 1), o(0, 0)), o(1, 0))
    assert np.array_equal(a.multiply(e(1, 1), o(0, 1)), o(1, 1))
    # (f w_i)(g x_i) = 0 and (f w_i)(g x_j) = -fg x_k, symmetrically
    assert np.array_equal(a.multiply(e(1, 0), o(1, 0)), np.zeros(a.n))
    assert np.array_equal(a.multiply(e(1, 0), o(2, 0)), (-1) % 5 * o(3, 0))
    assert np.array_equal(a.multiply(e(1, 0), o(3, 0)), (-1) % 5 * o(2, 0))
    assert np.array_equal(a.multiply(o(2, 0), e(1, 0)), (-1) % 5 * o(3, 0))
    # (f x)(g x_i) = -fg w_i, and the reverse order flips the sign
    assert np.array_equal(a.multiply(o(0, 0), o(1, 0)), (-1) % 5 * e(1, 0))
    assert np.array_equal(a.multiply(o(1, 0), o(0, 0)), e(1, 0))
    # x_i x_j = 0 for i, j in the labelled families
    assert np.array_equal(a.multiply(o(1, 0), o(2, 0)), np.zeros(a.n))
    assert np.array_equal(a.multiply(o(1, 1), o(1, 0)), np.zeros(a.n))
    # (f x)(g x) = delta(f) g - f delta(g)
    assert np.array_equal(a.multiply(o(0, 1), o(0, 0)), e(0, 0))


def test_big_superalgebra_jordan_identity_both_bases():
    for basis in ("w", "v"):
        ck = cheng_kac(truncated_poly(F5), basis=basis)
        assert check_supercommutative(ck.alg)
        assert check_jordan_super(ck.alg)


def test_v_basis_needs_a_square_root_of_minus_one():
    with pytest.raises(FieldError):
        cheng_kac(truncated_poly(F3), basis="v")
    # the quadratic extension fixes it
    ck = cheng_kac(truncated_poly(F9), basis="v")
    assert check_jordan_super(ck.alg)


def test_v_basis_products_are_cross_product_like():
    ck = cheng_kac(truncated_poly(F5), basis="v")
    a = ck.alg

    def e(fam, k):
        return a.basis_vector(ck.even_index(fam, k))

    def o(fam, k):
        return a.basis_vector(ck.odd_index(fam, k))

    # squares flip sign relative to the w basis: (f v_i)(g v_i) = -fg
    assert np.array_equal(a.multiply(e(1, 0), e(1, 0)), (-1) % 5 * e(0, 0))
    assert np.array_equal(a.multiply(e(1, 1), e(1, 0)), (-1) % 5 * e(0, 1))
    # v_i y_j is antisymmetric in (i, j): cyclic +y_k, anticyclic -y_k
    assert np.array_equal(a.multiply(e(1, 0), o(2, 1)), o(3, 1))
    assert np.array_equal(a.multiply(e(2, 0), o(3, 1)), o(1, 1))
    assert np.array_equal(a.multiply(e(2, 0), o(1, 1)), (-1) % 5 * o(3, 1))
    assert np.array_equal(a.multiply(e(3, 0), o(2, 1)), (-1) % 5 * o(1, 1))
    # the remaining families behave as in the w basis
    assert np.array_equal(a.multiply(e(1, 1), o(0, 0)), o(1, 0))
    assert np.array_equal(a.multiply(o(1, 1), o(0, 0)), e(1, 1))
    assert np.array_equal(a.multiply(o(1, 0), o(2, 0)), np.zeros(a.n))


@pytest.mark.parametrize("field", [F5, F9])
def test_change_of_basis_is_an_isomorphism(field):
    ck_w = cheng_kac(truncated_poly(field), basis="w")
    ck_v = cheng_kac(truncated_poly(field), basis="v")
    ch = w_to_v_change(ck_w, ck_v)
    assert is_homomorphism(ch)
    inv = map_inverse(ch)
    assert is_homomorphism(inv)
    # two-sided inverse: the composite is the identity on the w carrier
    assert np.array_equal(inv.compose(ch).matrix, np.eye(ck_w.alg.n))
    assert np.array_equal(ch.compose(inv).matrix, np.eye(ck_v.alg.n))


def test_odd_part_squares_to_even():
    ck = cheng_kac(truncated_poly(F5))
    assert odd_part_squares_to_even(ck.alg)
    assert odd_part_squares_to_even(kantor_double(truncated_poly(F3)).alg)
    # a purely even algebra fails the span condition trivially
    v = odd_part_squares_to_even(quadratic_jordan(F5))
    assert not v


def test_differential_json_round_trip():
    d = truncated_poly(F9)
    blob = differential_to_json(d)
    back = differential_from_json(blob)
    assert back.z.products == d.z.products
    assert np.array_equal(back.delta.matrix, d.delta.matrix)
    assert back.field == d.field


def test_a_derivation_into_a_proper_ideal_is_refused():
    """t d/dt is a derivation of F5[t]/(t^5), but Z delta(Z) is the ideal
    (t) of dim 4, so Z is not differentiably simple for it."""
    blob = differential_to_json(truncated_poly(F5))
    blob["delta"] = matrix_to_json(F5, np.diag(np.arange(5)))
    with pytest.raises(ValueError, match="proper ideal"):
        differential_from_json(blob)
