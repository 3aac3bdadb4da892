"""The order-24 symmetry action on the v-basis algebra, the coordinate
product on the scalar fine component, and the derivation transfer."""

import numpy as np
import pytest

from ckder import (FieldSpec, LinearMap, amod, build_s4, cheng_kac,
                   conjugate_der, coordinate_algebra, coxeter_witness,
                   extend_odd_eta, grade_derivations, inner_derivation,
                   inner_derivation_algebra, is_automorphism, is_derivation,
                   kantor_double, odd_der_eta, phi_iso, phi_star,
                   truncated_poly)
from ckder.battery import RunContext, check_transfer_iso
from ckder.symmetry import group_closure

F5 = FieldSpec(5)
F9 = FieldSpec(3, ext=True)


def make_action(field):
    return cheng_kac(truncated_poly(field), basis="v")


def test_action_closure_has_order_24():
    for field in (F5, F9):
        ck = make_action(field)
        act = build_s4(ck)
        assert len(act.elements) == 24
        mats = [g.matrix for g in act.elements]
        assert any(np.array_equal(m, np.eye(ck.alg.n)) for m in mats)


def test_generators_are_automorphisms():
    ck = make_action(F5)
    act = build_s4(ck)
    for g in (act.tau1, act.tau2, act.phi, act.tau):
        assert is_automorphism(g)


def test_w_basis_is_refused():
    ck = cheng_kac(truncated_poly(F5), basis="w")
    with pytest.raises(ValueError, match="v-basis"):
        build_s4(ck)


def test_sign_maps_follow_the_fine_grading():
    ck = make_action(F5)
    act = build_s4(ck)
    d1 = np.real(np.diag(act.tau1.matrix)).astype(int)
    d2 = np.real(np.diag(act.tau2.matrix)).astype(int)
    for fam, (g0, g1) in ((0, (0, 0)), (1, (1, 0)), (2, (0, 1)), (3, (1, 1))):
        for k in range(5):
            for idx in (ck.even_index(fam, k), ck.odd_index(fam, k)):
                assert d1[idx] == (-1) ** (g0 + g1) % 5
                assert d2[idx] == (-1) ** g1 % 5


def test_phi_cycles_the_marked_families():
    ck = make_action(F5)
    act = build_s4(ck)
    a = ck.alg
    for k in range(5):
        for src, dst in ((1, 2), (2, 3), (3, 1)):
            img = act.phi(a.basis_vector(ck.even_index(src, k)))
            assert np.array_equal(img, a.basis_vector(ck.even_index(dst, k)))
    # the scalar family is fixed pointwise
    for k in range(5):
        v = a.basis_vector(ck.even_index(0, k))
        assert np.array_equal(act.phi(v), v)


def test_tau_swaps_the_first_two_families_with_signs():
    ck = make_action(F5)
    act = build_s4(ck)
    a = ck.alg
    m1 = (-1) % 5
    assert np.array_equal(act.tau(a.basis_vector(ck.even_index(1, 0))),
                          m1 * a.basis_vector(ck.even_index(2, 0)))
    assert np.array_equal(act.tau(a.basis_vector(ck.even_index(2, 0))),
                          m1 * a.basis_vector(ck.even_index(1, 0)))
    assert np.array_equal(act.tau(a.basis_vector(ck.even_index(3, 2))),
                          m1 * a.basis_vector(ck.even_index(3, 2)))


def perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def perm_closure(gens):
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                c = perm_compose(g, p)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def test_coxeter_relations_match_a_permutation_model():
    """The three involutions inside the action satisfy exactly the
    relations of adjacent transpositions on four letters; replay the
    expected outcomes on honest permutations first."""
    s1 = (1, 0, 2, 3)
    s2 = (0, 2, 1, 3)
    s3 = (0, 1, 3, 2)
    ident = (0, 1, 2, 3)

    def order(p):
        q, k = p, 1
        while q != ident:
            q, k = perm_compose(p, q), k + 1
        return k

    assert order(s1) == order(s2) == order(s3) == 2
    assert order(perm_compose(s1, s2)) == 3
    assert order(perm_compose(s2, s3)) == 3
    assert order(perm_compose(s1, s3)) == 2
    assert len(perm_closure([s1, s2, s3])) == 24

    w = coxeter_witness(build_s4(make_action(F5)))
    assert w["s1_squared"] and w["s2_squared"] and w["s3_squared"]
    assert w["s1s2_cubed"] and w["s2s3_cubed"] and w["s1s3_squared"]
    assert w["generated_order"] == 24


def test_group_closure_bound():
    ck = make_action(F5)
    act = build_s4(ck)
    assert len(group_closure(F5, [act.tau1.matrix])) == 2
    assert len(group_closure(F5, [np.eye(ck.alg.n)])) == 1
    with pytest.raises(ValueError):
        group_closure(F5, [act.phi.matrix, act.tau.matrix], bound=5)


def test_conjugating_inner_derivations_permutes_their_arguments():
    ck = make_action(F5)
    act = build_s4(ck)
    a = ck.alg
    v1 = a.basis_vector(ck.even_index(1, 0))
    tv2 = a.basis_vector(ck.even_index(2, 1))
    d = inner_derivation(a, v1, tv2)
    got = conjugate_der(act.phi, d)
    v2 = a.basis_vector(ck.even_index(2, 0))
    tv3 = a.basis_vector(ck.even_index(3, 1))
    assert np.array_equal(got.matrix, inner_derivation(a, v2, tv3).matrix)


@pytest.fixture(scope="module")
def coord5():
    ck = make_action(F5)
    act = build_s4(ck)
    der = inner_derivation_algebra(ck.alg)
    return ck, act, coordinate_algebra(ck, der, act)


def test_coordinate_algebra_shape(coord5):
    ck, act, co = coord5
    assert co.alg.dim_even == 5 and co.alg.dim_odd == 5
    assert co.unital
    assert np.array_equal(co.involution, np.eye(10))
    comp = grade_derivations(inner_derivation_algebra(ck.alg)).component((0, 0))
    assert comp.dims == (5, 5)


def test_coordinate_products_have_closed_form(coord5):
    """The twisted product must reproduce the double: polynomials
    multiply truncatedly, odd pairs differentiate."""
    _, _, co = coord5
    a = co.alg
    p = 5
    e = a.basis_vector
    for i in range(p):
        for j in range(p):
            got = a.multiply(e(i), e(j))
            want = e(i + j) if i + j < p else np.zeros(a.n)
            assert np.array_equal(got, want), (i, j)
            got = a.multiply(e(i), e(p + j))
            want = e(p + i + j) if i + j < p else np.zeros(a.n)
            assert np.array_equal(got, want), (i, j)
            got = a.multiply(e(p + i), e(p + j))
            want = np.zeros(a.n)
            if 0 <= i + j - 1 < p:
                want[i + j - 1] = (j - i) % p
            assert np.array_equal(got, want), (i, j)


def test_phi_iso_columns(coord5):
    ck, _, co = coord5
    kd = kantor_double(truncated_poly(F5))
    phi = phi_iso(kd, co)
    assert phi.parity == 0
    i = F5.sqrt_minus_one()
    for k in range(5):
        assert np.array_equal(phi.matrix[:, kd.z_index(k)],
                              np.eye(10)[k])
        want = np.zeros(10, dtype=np.complex128)
        want[5 + k] = i
        assert np.array_equal(phi.matrix[:, kd.x_index(k)], want)


def test_transfer_produces_derivations_of_the_double(coord5):
    ck, act, co = coord5
    kd = kantor_double(truncated_poly(F5))
    tr = phi_star(ck, kd, co, phi_iso(kd, co))
    # the transfer eats maps of fine degree (0, 0): those preserve the
    # component carrying the coordinate product
    comp = grade_derivations(inner_derivation_algebra(ck.alg)).component((0, 0))
    for d in comp.even_basis[:2] + comp.odd_basis[:2]:
        out = tr.apply(d)
        assert out.parity == d.parity
        assert is_derivation(kd.alg, out)
    # degree (1, 1) maps move the component and are rejected (the very
    # first basis element is the coordinate unit, whose adjoint action
    # vanishes, so take the next one)
    with pytest.raises(ValueError):
        tr.apply(co.component.even_basis[1])


def test_transfer_eta_identity_smallest_case(coord5):
    ck, act, co = coord5
    kd = kantor_double(truncated_poly(F5))
    tr = phi_star(ck, kd, co, phi_iso(kd, co))
    i = F5.sqrt_minus_one()
    avec = np.zeros(5)
    avec[2] = 1
    tilde = extend_odd_eta(ck, avec)
    scaled = LinearMap(ck.alg, ck.alg, 1, amod(F5, i * tilde.matrix),
                       check=False)
    assert np.array_equal(tr.apply(scaled).matrix,
                          odd_der_eta(kd, avec).matrix)


def test_transfer_check_catches_swapped_images(monkeypatch):
    """A planted defect only the bracket clause of transfer_iso_stable
    can see: the images of two even basis elements swapped leave the
    image span and the rank as they were."""
    ctx = RunContext(3)
    assert check_transfer_iso(ctx)[0] == "pass"
    tr = ctx.transfer()
    comp = grade_derivations(ctx.der_j(ctx.sqrt, "v")[0]).component((0, 0))
    d0, d1 = comp.even_basis[:2]

    class Swapped:
        def apply(self, d):
            if np.array_equal(d.matrix, d0.matrix):
                d = d1
            elif np.array_equal(d.matrix, d1.matrix):
                d = d0
            return tr.apply(d)

    monkeypatch.setattr(ctx, "transfer", Swapped)
    status, _, witness = check_transfer_iso(ctx)
    assert status == "fail"
    assert witness["reason"] == "bracket not preserved"
