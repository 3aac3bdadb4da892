"""The order-24 symmetry action on the v-basis algebra, the coordinate
product on the scalar fine component, and the derivation transfer."""

import numpy as np
import pytest

from ckder import (FieldSpec, LinearMap, Subspace, amod, build_s4,
                   cheng_kac, conjugate_der, coordinate_algebra,
                   coxeter_witness, extend_even_der, extend_odd_eta,
                   grade_derivations, inner_derivation,
                   inner_derivation_algebra, inverse, is_automorphism,
                   is_derivation, kantor_double, odd_der_eta, phi_iso,
                   phi_star, super_commutator, truncated_poly)
from ckder.battery import RunContext, check_transfer_iso, run_battery
from ckder.linalg import mm, signed_permutation_inverse
from ckder import superalg, symmetry, tkk
from ckder.superalg import _brackets, _chain, _entries, _map_stack
from ckder.symmetry import _carrier_coords, _conjugate_entries, group_closure
from oracles import tensor
from test_sparse_checks import assert_bitwise, random_stack

F5 = FieldSpec(5)
F9 = FieldSpec(3, ext=True)


def apply_maps(tr, maps):
    """CoordinateTransfer.apply on a list of LinearMaps, with the
    transferred maps back as LinearMaps of the double, one per map, each
    checked against its parity."""
    k_alg = tr.kd.alg
    pars, (q, r, c, v) = tr.apply(*_map_stack(k_alg.field, maps))
    mats = np.zeros((len(pars), k_alg.n, k_alg.n), dtype=k_alg.field.dtype)
    mats[q, r, c] = v
    return [LinearMap(k_alg, k_alg, par, m) for par, m in zip(pars, mats)]


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


@pytest.mark.parametrize("p", [3, 7, 13])
def test_s4_elements_invert_by_transposition(p):
    """Every element of the action is a signed permutation matrix, whose
    inverse is its transpose: it equals the Gauss-Jordan inverse, alone
    and in the stack of all elements."""
    ctx = RunContext(p)
    f = ctx.sqrt
    elements = [g.matrix for g in ctx.act().elements]
    stacked = signed_permutation_inverse(f, np.stack(elements))
    for g, inv in zip(elements, stacked):
        got = signed_permutation_inverse(f, g)
        want = inverse(f, g)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert inv.tobytes() == want.tobytes()


def test_only_signed_permutations_invert_by_transposition():
    ctx = RunContext(3)
    f = ctx.sqrt
    g = ctx.act().phi.matrix
    twice, scaled, dropped = g.copy(), g.copy(), g.copy()
    twice[0, np.flatnonzero(g[0] == 0)[0]] = 1  # two nonzeros in row 0
    scaled[g != 0] *= 1 + 1j                # 1 + u, not 1 or -1
    dropped[:, 0] = 0                       # a zero column
    for m in (twice, scaled, dropped, g[:-1], ctx.phi().matrix,
              np.eye(4)[0], np.stack([g, g, twice])):
        with pytest.raises(ValueError, match="signed permutation"):
            signed_permutation_inverse(f, m)


def test_no_s4_element_is_inverted_by_elimination(monkeypatch):
    """The symmetry, coordinate and tkk groups invert by Gauss-Jordan
    only what is no element of the action: the coordinate isomorphism,
    the carrier change of basis, the sl2 base change and the transfer
    of the derivations."""
    elements = {g.matrix.tobytes() for g in RunContext(3).act().elements}
    seen = []

    def counted(field, m):
        seen.append(np.array(m))
        return inverse(field, m)

    for module in (symmetry, tkk):
        monkeypatch.setattr(module, "inverse", counted)
    report, _ = run_battery(3, ["s4", "coord", "tkk"])
    assert report["summary"]["pass"] == 21
    assert len(seen) == 5
    assert not elements & {m.tobytes() for m in seen}


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


@pytest.mark.parametrize("field", [F5, F9], ids=["F5", "F9"])
@pytest.mark.parametrize("seed", range(20))
def test_conjugate_entries_relabel_like_the_dense_conjugate(field, seed):
    """Conjugation by a signed permutation moves and signs the entries:
    the same entries, bitwise and in (s, r, c) order, as the dense
    conjugates g M g^-1 on random sparse maps of mixed parity."""
    rng = np.random.default_rng(seed)
    n, maps = random_stack(rng, field)
    carrier = maps[0].source
    # an even map, so the conjugates keep their parities
    to = np.arange(n)
    for part in (carrier.parities == 0, carrier.parities == 1):
        to[part] = rng.permutation(to[part])
    g = np.zeros((n, n), dtype=field.dtype)
    g[to, np.arange(n)] = rng.choice([1, field.p - 1], n)
    gm = LinearMap(carrier, carrier, 0, g)
    got = _conjugate_entries(
        field, g, _entries(field, np.stack([d.matrix for d in maps])))
    want = _entries(field, np.stack([conjugate_der(gm, d).matrix
                                     for d in maps]))
    for x, y in zip(got, want):
        assert_bitwise(x, y)


@pytest.mark.parametrize("field", [F5, F9], ids=["F5", "F9"])
def test_conjugate_entries_refuse_other_matrices(field):
    entries = _entries(field, np.eye(3, dtype=field.dtype)[None])
    # sqrt(-1), 2 over F5 and u over F9, is neither 1 nor -1
    scaled = np.eye(3, dtype=field.dtype)
    scaled[1, 1] = field.sqrt_minus_one()
    crowded = np.eye(3, dtype=field.dtype)
    crowded[2, 0] = 1           # two nonzeros in column 0
    for g in (scaled, crowded):
        with pytest.raises(ValueError, match="signed permutation"):
            _conjugate_entries(field, g, entries)


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
    maps = comp.even_basis[:2] + comp.odd_basis[:2]
    for d, out in zip(maps, apply_maps(tr, maps)):
        assert out.parity == d.parity
        assert is_derivation(kd.alg, out)
    # degree (1, 1) maps move the component and are rejected (the very
    # first basis element is the coordinate unit, whose adjoint action
    # vanishes, so take the next one)
    with pytest.raises(ValueError):
        apply_maps(tr, [co.component.even_basis[1]])


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
    assert np.array_equal(apply_maps(tr, [scaled])[0].matrix,
                          odd_der_eta(kd, avec).matrix)


def test_transfer_check_catches_swapped_images(monkeypatch):
    """A planted defect only the bracket clause of transfer_iso_stable
    can see: the images of two even basis elements swapped leave the
    image span and the rank as they were."""
    ctx = RunContext(3)
    assert check_transfer_iso(ctx)[0] == "pass"
    tr = ctx.transfer()
    comp = grade_derivations(ctx.der_j(ctx.sqrt, "v")).component((0, 0))
    assert comp.dims[0] >= 2

    class Swapped:
        def apply(self, parities, entries):
            # maps 0 and 1 are the first two even basis elements
            q = entries[0]
            swapped = np.where(q == 0, 1, np.where(q == 1, 0, q))
            return tr.apply(parities, (swapped, *entries[1:]))

    monkeypatch.setattr(ctx, "transfer", Swapped)
    status, _, witness = check_transfer_iso(ctx)
    assert status == "fail"
    assert witness["reason"] == "bracket not preserved"


class PerPairPath:
    """The coordinate product, the involution and the transfer one pair
    at a time: dense conjugations and super_commutator, read in carrier
    coordinates through the RREF span of the carriers (coords_of)."""

    def __init__(self, ctx):
        self.f = f = ctx.sqrt
        self.act, self.co, self.phi = ctx.act(), ctx.coord(), ctx.phi()
        self.maps = [self.co.as_map(e) for e in np.eye(self.co.alg.n)]
        flat = np.stack([m.flatten() for m in self.maps])
        self.span = Subspace(f, flat.shape[1], flat)
        self.to_carrier = inverse(f, self.span.coords_of(flat))

    def coords(self, m):
        c = self.span.coords_of(m.flatten())
        if c is None:
            raise ValueError("map escapes the carrier span")
        return amod(self.f, c @ self.to_carrier)

    def conj(self, g, m, power=1):
        f = self.f
        for _ in range(power):
            m = amod(f, g @ amod(f, m @ inverse(f, g)))
        return m

    def lin(self, par, m):
        a = self.co.component.algebra
        return LinearMap(a, a, par, m, check=False)

    def products(self):
        tau, phi = self.act.tau.matrix, self.act.phi.matrix
        k = len(self.maps)
        out = np.zeros((k, k, k), dtype=self.f.dtype)
        for i, x in enumerate(self.maps):
            for j, y in enumerate(self.maps):
                br = super_commutator(
                    self.lin(x.parity, self.conj(phi, x.matrix)),
                    self.lin(y.parity, self.conj(phi, y.matrix, 2)))
                out[i, j] = self.coords(self.lin(
                    br.parity, amod(self.f, -self.conj(tau, br.matrix))))
        return out

    def involution(self):
        tau = self.act.tau.matrix
        return np.stack([self.coords(self.lin(
            x.parity, amod(self.f, -self.conj(tau, x.matrix))))
            for x in self.maps], axis=1)

    def transfer(self, d):
        f, kd_alg = self.f, self.phi.source
        cols = []
        for j, par in enumerate(kd_alg.parities):
            img = amod(f, sum(c * m.matrix for c, m
                              in zip(self.phi.matrix[:, j], self.maps)))
            cols.append(self.coords(super_commutator(d, self.lin(par, img))))
        return amod(f, inverse(f, self.phi.matrix) @ np.stack(cols, axis=1))


@pytest.mark.parametrize("p", [3, 7])
def test_coordinate_layer_matches_the_per_pair_path(p):
    """Over F9 and F49 the coordinate products, the involution and the
    transfer of every scalar-component basis map agree bit for bit with
    the per-pair path."""
    ctx = RunContext(p)
    old, co, tr = PerPairPath(ctx), ctx.coord(), ctx.transfer()
    assert ctx.sqrt.ext
    assert tensor(co.alg).tobytes() == old.products().tobytes()
    assert co.involution.tobytes() == old.involution().tobytes()
    comp = ctx.graded_j(ctx.sqrt, "v").component((0, 0))
    maps = comp.even_basis + comp.odd_basis
    for d, got in zip(maps, apply_maps(tr, maps)):
        assert got.parity == d.parity
        assert got.matrix.tobytes() == old.transfer(d).tobytes()
    # a degree (1, 1) map moves the carrier component out of itself
    with pytest.raises(ValueError, match="escapes the carrier span"):
        apply_maps(tr, [co.component.even_basis[1]])
    with pytest.raises(ValueError, match="escapes the carrier span"):
        old.transfer(co.component.even_basis[1])


def per_map_transfer(tr, d):
    """The transfer of the single map d: its own commutator join with
    the images and its own carrier coordinates, as apply ran once per
    map before it took lists."""
    k_alg = tr.kd.alg
    f = k_alg.field
    keys, vals = _brackets(f, tr.ck.alg.n, _map_stack(f, [d]),
                           (k_alg.parities, tr.images))
    co = _carrier_coords(tr.coord.component, tr.coord.change, keys, vals,
                         k_alg.n)
    return mm(f, inverse(f, tr.phi.matrix), co.T)


@pytest.mark.parametrize("p", [3, 7])
def test_list_transfer_matches_the_per_map_transfer(p):
    """Over F9 and F49 one apply call on a list of maps of both parities
    (the scalar component of Der(J) and of Inder(J), and the forced
    extensions of the even derivations of the double) gives, bit for
    bit, the maps that one join per map gives."""
    ctx = RunContext(p)
    f, tr = ctx.sqrt, ctx.transfer()
    assert f.ext
    ck = ctx.ck(f, "v")
    maps = [extend_even_der(ck, d) for d in ctx.bar_k(f).even_basis]
    for ds in (ctx.der_j(f, "v"), ctx.inder_j(f, "v")):
        comp = grade_derivations(ds).component((0, 0))
        maps += comp.odd_basis + comp.even_basis
    got = apply_maps(tr, maps)
    assert len(got) == len(maps)
    for d, out in zip(maps, got):
        assert out.parity == d.parity
        assert out.matrix.tobytes() == per_map_transfer(tr, d).tobytes()


@pytest.mark.parametrize("p", [3, 5])
def test_cross_joins_make_only_the_terms_they_keep(p, monkeypatch):
    """The transfer's bracket of the scalar component with the images
    is one named-pair join that matches only maps against images: every
    term it makes is summed into a kept key, where one self-join of the
    chained stack would also pair maps with maps and images with
    images."""
    ctx = RunContext(p)
    f, tr = ctx.sqrt, ctx.transfer()
    comp = ctx.graded_j(f, "v").component((0, 0))
    images = (tr.kd.alg.parities, tr.images)
    made, summed = [], []

    def terms(n, left, right, pairs):
        out = real_terms(n, left, right, pairs)
        made.append(out[0].size)
        return out

    def sums(field, keys, vals):
        summed.append(keys.size)
        return real_sum(field, keys, vals)

    real_terms, real_sum = superalg._named_pair_terms, superalg.sum_per_key
    monkeypatch.setattr(superalg, "_named_pair_terms", terms)
    monkeypatch.setattr(superalg, "sum_per_key", sums)
    keys, _ = _brackets(f, tr.ck.alg.n, comp.stack(), images)
    monkeypatch.undo()
    assert len(made) == 1 and summed == made and keys.size
    # one self-join of the chained stack matches every M[r, m] N[m, c]
    # and makes two terms of each
    n = tr.ck.alg.n
    _, r, c, _ = _chain(comp.stack(), images)[1]
    pairs = np.bincount(c, minlength=n) @ np.bincount(r, minlength=n)
    assert made[0] < 2 * pairs
