"""Planted defects in the battery: each check below turns to `fail`,
with a witness, when the object it checks, or the join that builds it,
is broken in one place."""

import dataclasses

import numpy as np
import pytest

from ckder import (DerivationSpace, LinearMap, Subspace, SuperAlgebra, amod,
                   check_supercommutative, inner_derivation)
from ckder import battery, derivations, symmetry, tkk
from ckder.superalg import _chain
from ckder.battery import (RunContext, check_big_der_equals_inder,
                           check_big_inder_dims,
                           check_big_v_jordan_identity,
                           check_big_v_supercommutative,
                           check_big_w_jordan_identity,
                           check_big_w_supercommutative,
                           check_coordinate_constants,
                           check_der_as_tits_double, check_double_der_dims,
                           check_double_inder_dims, check_double_odd_split,
                           check_double_jordan_identity,
                           check_double_supercommutative,
                           check_dzzx_vanishes, check_graded_component_dims,
                           check_graded_named_spans,
                           check_odd_part_squares,
                           check_s4_closure, check_s4_coxeter,
                           check_s4_fixes_scalar_component,
                           check_tits_big_lie, check_tits_double_lie,
                           check_tits_double_stable_lie,
                           check_tkk_big_3graded, check_tkk_big_dims,
                           check_tkk_big_lie, check_tkk_sl2_bridge,
                           check_transfer_eta_identity,
                           check_transfer_extension_identity,
                           check_transfer_inner, check_transfer_iso,
                           check_w_v_equivalence, field_label,
                           run_battery)
from oracles import tensor
from test_sparse_checks import (_perturbed, _symmetric_perturbation,
                                dense_jordan_super, dense_super_lie,
                                dense_supercommutative)


def _dropping(real, lost):
    """inner_derivation_entries without the maps q for which lost(a,
    pair) holds, pair the (u, v) of q."""
    def entries(a, pairs=None):
        keys, vals = real(a, pairs)
        q = keys // a.n ** 2
        named = np.divmod(q, a.n) if pairs is None else \
            np.asarray(pairs).reshape(-1, 2)[q].T
        keep = ~lost(a, *named)
        return keys[keep], vals[keep]
    return entries


def _short(ds, parity):
    """ds without the last map of its basis of one parity."""
    basis = [list(ds.even_basis), list(ds.odd_basis)]
    basis[parity].pop()
    return DerivationSpace(ds.algebra, *basis, canonicalize=False,
                           validate=False)


def test_big_w_jordan_identity_fails_on_a_perturbed_constant():
    ctx = RunContext(3)
    f = ctx.base
    ck = ctx.ck(f, "w")
    assert check_big_w_jordan_identity(ctx)[0] == "pass"
    # w_1 w_1 = 1 becomes 2
    w1 = ck.even_index(1, 0)
    i, j, _, _ = ck.alg.coo()
    t = np.flatnonzero((i == w1) & (j == w1))[0]
    bad = _symmetric_perturbation(ck.alg, t)
    assert check_supercommutative(bad)
    ctx._cache[("ck", f.p, f.ext, "w")] = dataclasses.replace(ck, alg=bad)
    status, field, witness = check_big_w_jordan_identity(ctx)
    assert (status, field) == ("fail", "F3")
    assert len(witness["witness"]["triple"]) == 3


# the Lie table each check reads from its RunContext, and the pair (i, j)
# whose first bracket constant is raised, [e_j, e_i] following it
LIE_PLANTS = {
    "tits_double_lie": (check_tits_double_lie, "tits_double", (7, 18)),
    "tits_double_stable_lie": (check_tits_double_stable_lie,
                               "tits_double_stable", (7, 18)),
    "tits_big_lie": (check_tits_big_lie, "tits_big", (28, 70)),
    "tkk_big_lie": (check_tkk_big_lie, "tkk_big", (28, 72)),
}


@pytest.mark.parametrize("name", list(LIE_PLANTS))
def test_lie_checks_fail_on_a_perturbed_bracket(name):
    """The Jacobi sum is keyed at sorted triples only, so its witness is
    the least failing sorted triple; the dense oracle, which sums every
    triple, finds the same one.  Each plant fails at three distinct
    indices, where the mirror [e_j, e_i] of a pair row takes part."""
    check, table, pair = LIE_PLANTS[name]
    ctx = RunContext(3)
    f = ctx.base
    assert check(ctx)[0] == "pass"
    bad = _perturbed(getattr(ctx, table)(f), *pair, 0, both_orders=True)
    ctx._cache[(table, f.p, f.ext)] = bad
    status, field, witness = check(ctx)
    assert (status, field) == ("fail", "F3")
    triple = witness["witness"]["triple"]
    assert triple == sorted(triple) and len(set(triple)) == 3
    assert witness["witness"] == dense_super_lie(bad)[1]


@pytest.mark.parametrize("check,key,sqrt,constant", [
    (check_double_jordan_identity, ("kd",), False, (1, 3, 4)),
    (check_big_v_jordan_identity, ("ck", "v"), True, (6, 16, 22))],
    ids=["double_jordan_identity", "big_v_jordan_identity"])
def test_jordan_checks_fail_on_a_perturbed_constant(check, key, sqrt,
                                                    constant):
    """t * (t^0 x) = t x over F3 in K, and (t^0 v2)(t y1) = t y2 over F9
    in J_v, raised in both orders: the least failing triple is sorted
    and equal to the dense oracle's."""
    ctx = RunContext(3)
    f = ctx.sqrt if sqrt else ctx.base
    assert check(ctx)[0] == "pass"
    cache = (key[0], f.p, f.ext, *key[1:])
    obj = ctx._cache[cache]
    i, j, k, _ = obj.alg.coo()
    t = np.flatnonzero((i == constant[0]) & (j == constant[1])
                       & (k == constant[2]))[0]
    bad = _symmetric_perturbation(obj.alg, t)
    ctx._cache[cache] = dataclasses.replace(obj, alg=bad)
    status, field, witness = check(ctx)
    assert (status, field) == ("fail", "F9" if sqrt else "F3")
    triple = witness["witness"]["triple"]
    assert triple == sorted(triple)
    assert witness["witness"] == dense_jordan_super(bad)[1]


@pytest.mark.parametrize("check,key,sqrt", [
    (check_double_supercommutative, ("kd",), False),
    (check_big_w_supercommutative, ("ck", "w"), False),
    (check_big_v_supercommutative, ("ck", "v"), True)],
    ids=["double_supercommutative", "big_w_supercommutative",
         "big_v_supercommutative"])
def test_supercommutative_checks_fail_on_one_flipped_constant(check, key,
                                                              sqrt):
    """The constant e_i e_j, i < j, halfway down the table and away from
    the unit, changes sign in this order only: the check fails with the
    pair (i, j), the first asymmetric pair, as the dense oracle finds."""
    ctx = RunContext(3)
    f = ctx.sqrt if sqrt else ctx.base
    assert check(ctx) == ("pass", field_label(f), None)
    cache = (key[0], f.p, f.ext, *key[1:])
    obj = ctx._cache[cache]
    a = obj.alg
    i, j, k, c = a.coo()
    off = np.flatnonzero((i < j) & (i != a.unit_index) & (j != a.unit_index))
    t = off[off.size // 2]
    bad = SuperAlgebra(f, a.dim_even, a.dim_odd, a.labels,
                       (i, j, k, np.where(np.arange(c.size) == t, -c, c)),
                       a.unit_index, a.fine_label)
    ctx._cache[cache] = dataclasses.replace(obj, alg=bad)
    status, field, witness = check(ctx)
    assert (status, field) == ("fail", field_label(f))
    assert witness == {"witness": dense_supercommutative(bad)[1]}
    assert witness["witness"]["pair"] == [i[t], j[t]]


def test_w_v_equivalence_fails_on_two_swapped_columns(monkeypatch):
    real = battery.w_to_v_change

    def swapped(ck_w, ck_v):
        # t and t^2 of the scalar part trade images
        change = real(ck_w, ck_v)
        m = change.matrix.copy()
        m[:, [1, 2]] = m[:, [2, 1]]
        return LinearMap(change.source, change.target, 0, m)

    monkeypatch.setattr(battery, "w_to_v_change", swapped)
    status, field, witness = check_w_v_equivalence(RunContext(3))
    assert (status, field) == ("fail", "F9")
    # t t = t^2 goes to t, but the images of t multiply to t^4 = 0
    assert witness["witness"]["pair"] == [1, 1]


def test_tkk_sl2_bridge_fails_on_an_altered_column(monkeypatch):
    ctx = RunContext(3)
    tkk = ctx.tkk_big(ctx.sqrt)
    real = tkk.idx_der
    # the first even derivation of the tensor construction is sent to
    # the second one of the 3-graded construction
    monkeypatch.setattr(tkk, "idx_der",
                        lambda par, k: real(par, k + ((par, k) == (0, 0))))
    status, field, witness = check_tkk_sl2_bridge(ctx)
    assert (status, field) == ("fail", "F9")
    assert len(witness["witness"]["pair"]) == 2


def test_tkk_big_dims_fails_when_a_derivation_is_lost():
    ctx = RunContext(3)
    f = ctx.base
    assert check_tkk_big_dims(ctx)[0] == "pass"
    lie = ctx.tkk_big(f)
    # the last basis vector, the last odd derivation, and its brackets
    # are lost
    last = lie.idx_der(1, lie.dspace.dims[1] - 1)
    assert last == lie.n - 1
    keep = np.all(np.stack(lie.coo()[:3]) != last, axis=0)
    ctx._cache[("tkk_big", f.p, f.ext)] = tkk.TkkAlgebra(
        f, lie.labels[:-1], [x[keep] for x in lie.coo()], lie.grading[:-1],
        lie.jalg, _short(lie.dspace, 1))
    assert check_tkk_big_dims(ctx) == (
        "fail", "F3", {"dim": 95, "even": 48, "odd": 47,
                       "expected": [96, 48, 48]})


@pytest.mark.parametrize("plant", ["term", "tag"])
def test_tkk_big_3graded_fails_on_a_bracket_off_its_grade(plant):
    """[1(+), 1(-)] = L[1], in degree 0, gains a term on 1(+); or 1(-)
    is tagged +1, which puts the same bracket in degree 2, where no
    bracket may be nonzero.  Either way the first offending pair is
    (1(+), 1(-))."""
    ctx = RunContext(3)
    f = ctx.base
    assert check_tkk_big_3graded(ctx) == ("pass", "F3", None)
    lie = ctx.tkk_big(f)
    u = lie.jalg.unit_index
    plus, minus = lie.idx_copy(0, u), lie.idx_copy(1, u)
    table, grading = list(lie.coo()), list(lie.grading)
    if plant == "term":
        # both orders: the even [1(+), 1(-)] is antisymmetric
        table = [np.r_[x, y] for x, y in zip(
            table, ([plus, minus], [minus, plus], [plus, plus], [1, -1]))]
        want = {"pair": ("t^0(+)", "t^0(-)"), "lands_on": "t^0(+)"}
    else:
        grading[minus] = 1
        want = {"pair": ("t^0(+)", "t^0(-)"),
                "reason": "nonzero bracket outside the grading range"}
    ctx._cache[("tkk_big", f.p, f.ext)] = tkk.TkkAlgebra(
        f, lie.labels, table, grading, lie.jalg, lie.dspace)
    assert check_tkk_big_3graded(ctx) == ("fail", "F3", {"witness": want})


def test_big_inder_dims_fails_when_the_odd_pairs_are_lost(monkeypatch):
    # the inner span sees only D(u, v) with u and v both even
    monkeypatch.setattr(derivations, "inner_derivation_entries", _dropping(
        derivations.inner_derivation_entries,
        lambda a, u, v: (a.parities[u] | a.parities[v]) == 1))
    status, field, witness = check_big_inder_dims(RunContext(3))
    assert (status, field) == ("fail", "F3")
    assert witness["dims"][1] == 0 and witness["expected"] == [12, 12]


def test_double_inder_dims_fails_when_the_odd_odd_pairs_are_lost(
        monkeypatch):
    # the inner span of K loses every D(u, v) with u and v both odd, the
    # maps that span its even part
    assert check_double_inder_dims(RunContext(3)) == (
        "pass", "F3", {"dims": [3, 3], "expected": [3, 3]})
    monkeypatch.setattr(derivations, "inner_derivation_entries", _dropping(
        derivations.inner_derivation_entries,
        lambda a, u, v: (a.parities[u] & a.parities[v]) == 1))
    assert check_double_inder_dims(RunContext(3)) == (
        "fail", "F3", {"dims": [0, 3], "expected": [3, 3]})


@pytest.mark.parametrize("parity,grade", [(0, "(1, 0)"), (1, "(0, 0)")])
def test_graded_component_dims_fails_when_a_derivation_is_lost(parity,
                                                                 grade):
    """Der(J_w) over F3 without the last basis map of one parity: the
    fine component that map lay in is one short."""
    ctx = RunContext(3)
    f = ctx.base
    assert check_graded_component_dims(ctx)[0] == "pass"
    ctx = RunContext(3)
    ctx._cache[("der_j", f.p, f.ext, "w")] = _short(ctx.der_j(f, "w"),
                                                    parity)
    table = {str(g): [3, 3] for g in ((0, 0), (0, 1), (1, 0), (1, 1))}
    table[grade][parity] = 2
    assert check_graded_component_dims(ctx) == (
        "fail", "F3", {"table": table})


def test_odd_part_squares_to_even_fails_when_one_even_vector_is_missed():
    ctx = RunContext(3)
    f = ctx.base
    ck = ctx.ck(f, "w")
    a, n0 = ck.alg, ck.alg.dim_even
    assert check_odd_part_squares(ctx)[0] == "pass"
    # the products of two odd basis vectors lose their terms on t^0 w1
    i, j, k, _ = a.coo()
    lost = (i >= n0) & (j >= n0) & (k == ck.even_index(1, 0))
    bad = SuperAlgebra(f, n0, a.dim_odd, a.labels,
                       [x[~lost] for x in a.coo()], a.unit_index,
                       a.fine_label)
    ctx._cache[("ck", f.p, f.ext, "w")] = dataclasses.replace(ck, alg=bad)
    status, field, witness = check_odd_part_squares(ctx)
    assert (status, field) == ("fail", "F3")
    assert witness["witness"] == {"got_dim": n0 - 1, "want_dim": n0}
    # the span of the dense odd-odd block of the table agrees
    odd = tensor(bad)[n0:, n0:].reshape(-1, a.n)
    assert Subspace(f, a.n, odd).dim == n0 - 1


def dense_dzzx_witness(ck):
    """The first nonzero D(Z, Z x_fam) by dense products, in the order
    family, i, j."""
    a = ck.alg
    for fam in (1, 2, 3):
        for i in range(ck.dz):
            for j in range(ck.dz):
                d = inner_derivation(a, a.basis_vector(ck.even_index(0, i)),
                                     a.basis_vector(ck.odd_index(fam, j)))
                if np.any(d.matrix):
                    return {"family": fam, "powers": [i, j]}
    return None


def test_dzzx_vanishes_fails_with_the_first_witness_in_loop_order():
    ctx = RunContext(3)
    f = ctx.base
    ck = ctx.ck(f, "w")
    assert check_dzzx_vanishes(ctx)[0] == "pass"
    # t^2 x2 = t^2 x2 becomes 2 t^2 x2: D(t^2, x1), D(t, x2) and
    # D(t^2, x3) are nonzero, so the witness tells the loop orders apart
    i, j, _, _ = ck.alg.coo()
    t = np.flatnonzero((i == ck.even_index(0, 2))
                       & (j == ck.odd_index(2, 0)))[0]
    bad = dataclasses.replace(ck, alg=_symmetric_perturbation(ck.alg, t))
    ctx._cache[("ck", f.p, f.ext, "w")] = bad
    status, field, witness = check_dzzx_vanishes(ctx)
    assert (status, field) == ("fail", "F3")
    assert witness == {"family": 1, "powers": [2, 0]}
    assert witness == dense_dzzx_witness(bad)


def test_graded_named_spans_fails_when_a_named_pair_is_lost(monkeypatch):
    ctx = RunContext(3)
    ck = ctx.ck(ctx.base, "w")
    gone = (ck.even_index(2, 0), ck.odd_index(0, 1))     # D(w2, t x)
    monkeypatch.setattr(battery, "inner_derivation_entries", _dropping(
        battery.inner_derivation_entries,
        lambda a, u, v: (u == gone[0]) & (v == gone[1])))
    status, field, witness = check_graded_named_spans(ctx)
    assert (status, field) == ("fail", "F3")
    assert witness == {"grade": [0, 1], "parity": 1, "span_dim": 2,
                       "component_dim": 3}


def test_der_as_tits_double_fails_when_a_bracket_coordinate_is_lost(
        monkeypatch):
    # the tensor construction over the double loses its first nonzero
    # D(e_a, e_b) in index order
    def first_map(a, u, v):
        q = u * a.n + v
        return q == q.min()

    monkeypatch.setattr(tkk, "inner_derivation_entries", _dropping(
        tkk.inner_derivation_entries, first_map))
    status, field, witness = check_der_as_tits_double(RunContext(3))
    assert (status, field) == ("fail", "F9")
    assert witness["which"] == "full"
    assert len(witness["witness"]["pair"]) == 2


def test_s4_fixes_scalar_component_fails_on_an_altered_element():
    ctx = RunContext(3)
    assert check_s4_fixes_scalar_component(ctx)[0] == "pass"
    # one group element also swaps t and t^2 of the scalar part, which
    # no longer commutes with the derivations of the coefficients
    act = ctx.act()
    ck = ctx.ck(ctx.sqrt, "v")
    g = act.elements[5].matrix.copy()
    swap = [ck.even_index(0, 1), ck.even_index(0, 2)]
    g[:, swap] = g[:, swap[::-1]]
    elements = list(act.elements)
    elements[5] = LinearMap(act.algebra, act.algebra, 0, g)
    ctx._cache[("act",)] = dataclasses.replace(act, elements=elements)
    status, field, witness = check_s4_fixes_scalar_component(ctx)
    assert (status, field) == ("fail", "F9")
    assert witness == {"how": "solved"}


def test_s4_fixes_scalar_component_fails_on_a_scaled_element():
    # sqrt(-1) times the identity commutes with every map, but it is not
    # a signed permutation, so it cannot be an element of the action
    ctx = RunContext(3)
    act = ctx.act()
    scaled = amod(ctx.sqrt, ctx.sqrt.sqrt_minus_one() * np.eye(act.algebra.n))
    elements = list(act.elements)
    elements[5] = LinearMap(act.algebra, act.algebra, 0, scaled)
    ctx._cache[("act",)] = dataclasses.replace(act, elements=elements)
    assert check_s4_fixes_scalar_component(ctx) == (
        "fail", "F9", {"how": "not a signed permutation"})


def test_s4_closure_order_fails_on_a_missing_element():
    ctx = RunContext(3)
    assert check_s4_closure(ctx) == ("pass", "F9", {"order": 24})
    act = ctx.act()
    ctx._cache[("act",)] = dataclasses.replace(act,
                                               elements=act.elements[:23])
    assert check_s4_closure(ctx) == ("fail", "F9", {"order": 23})


def test_s4_coxeter_relations_fail_on_an_identity_generator():
    ctx = RunContext(3)
    assert check_s4_coxeter(ctx)[0] == "pass"
    # tau1 = 1 makes s3 = tau1 tau = s1, and s1, s2 generate S3
    act = ctx.act()
    one = LinearMap(act.algebra, act.algebra, 0, np.eye(act.algebra.n))
    ctx._cache[("act",)] = dataclasses.replace(act, tau1=one)
    status, field, witness = check_s4_coxeter(ctx)
    assert (status, field) == ("fail", "F9")
    assert witness["generated_order"] == 6


def test_coordinate_constants_match_fails_on_a_zero_isomorphism(monkeypatch):
    ctx = RunContext(3)
    assert check_coordinate_constants(ctx) == ("pass", "F9", None)
    # the zero map is a homomorphism, so only bijectivity can catch it
    phi = ctx.phi()
    zero = LinearMap(phi.source, phi.target, 0, np.zeros_like(phi.matrix))
    monkeypatch.setattr(ctx, "phi", lambda: zero)
    assert check_coordinate_constants(ctx) == (
        "fail", "F9", {"witness": {"reason": "not bijective"}})


@pytest.mark.parametrize("plant", ["zero", "t delta"])
def test_double_odd_split_fails_without_the_extra_line(monkeypatch, plant):
    ctx = RunContext(3)
    assert check_double_odd_split(ctx)[0] == "pass"
    real = battery.odd_der_char3

    def planted(kd, mu):
        if plant == "zero":       # the extra line is lost
            return LinearMap(kd.alg, kd.alg, 1, np.zeros((kd.alg.n,) * 2))
        # t delta in place of delta: a line outside Der(K)
        z = kd.dalg.z
        t = z.left_mult(z.basis_vector(1)).matrix
        return real(kd, amod(z.field, t @ mu), check=False)

    monkeypatch.setattr(battery, "odd_der_char3", planted)
    assert check_double_odd_split(ctx) == (
        "fail", "F3", {"der_odd": 4, "inder_odd": 3, "extra_lines": 1})


def test_double_odd_split_fails_on_a_lost_inner_map_at_p5():
    ctx = RunContext(5)
    assert check_double_odd_split(ctx)[0] == "pass"
    f = ctx.base
    ctx._cache[("inder_k", f.p, f.ext)] = _short(ctx.inder_k(f), 1)
    assert check_double_odd_split(ctx) == (
        "fail", "F5", {"der_odd": 5, "inder_odd": 4})


@pytest.mark.parametrize("parity", [0, 1])
def test_transfer_iso_stable_fails_on_a_lost_stable_map(parity):
    ctx = RunContext(3)
    assert check_transfer_iso(ctx)[0] == "pass"
    f = ctx.sqrt
    ctx._cache[("bar_k", f.p, f.ext)] = _short(ctx.bar_k(f), parity)
    assert check_transfer_iso(ctx) == (
        "fail", "F9", {"reason": "image mismatch", "parity": parity})


def test_transfer_iso_stable_fails_on_a_duplicated_image(monkeypatch):
    # one more image, a copy of the first: the span is unchanged
    real = symmetry.CoordinateTransfer.apply

    def duplicated(tr, parities, entries):
        pars, got = real(tr, parities, entries)
        first = got[0] == 0
        return _chain((pars, got), (pars[:1], tuple(x[first] for x in got)))

    monkeypatch.setattr(symmetry.CoordinateTransfer, "apply", duplicated)
    assert check_transfer_iso(RunContext(3)) == (
        "fail", "F9", {"reason": "not injective"})


@pytest.mark.parametrize("parity", [0, 1])
def test_transfer_inner_onto_inner_fails_on_a_lost_inner_map(parity):
    ctx = RunContext(3)
    assert check_transfer_inner(ctx) == ("pass", "F9", None)
    f = ctx.sqrt
    ctx._cache[("inder_k", f.p, f.ext)] = _short(ctx.inder_k(f), parity)
    assert check_transfer_inner(ctx) == ("fail", "F9", {"parity": parity})


def test_transfer_extension_identity_fails_on_a_doubled_extension(
        monkeypatch):
    ctx = RunContext(3)
    assert check_transfer_extension_identity(ctx) == ("pass", "F9", None)
    real = battery.extend_even_der

    def doubled(ck, dk):
        # twice a derivation is a derivation, but transfers to twice dk
        d = real(ck, dk)
        return LinearMap(d.source, d.target, 0, amod(ck.alg.field,
                                                     2 * d.matrix))

    monkeypatch.setattr(battery, "extend_even_der", doubled)
    assert check_transfer_extension_identity(ctx) == ("fail", "F9", None)


def test_transfer_eta_identity_fails_on_a_shifted_power(monkeypatch):
    ctx = RunContext(3)
    assert check_transfer_eta_identity(ctx) == ("pass", "F9", None)
    real = battery.odd_der_eta

    def shifted(kd, a):
        # the map for t goes to the one for t^2; 1 and t^2 are kept
        return real(kd, np.roll(a, 1) if a[1] else a)

    monkeypatch.setattr(battery, "odd_der_eta", shifted)
    assert check_transfer_eta_identity(ctx) == ("fail", "F9", {"power": 1})


def _planted_kernel(monkeypatch, plant):
    """derivations._sparse_kernel with plant applied to what it takes
    (system) or to what it returns (kernel)."""
    real = derivations._sparse_kernel

    def planted(field, keys, vals, nu):
        if plant == "system":
            # the unknown of the first equation of one cell drops out
            eq, col = np.divmod(keys, nu)
            lone = np.flatnonzero(np.bincount(eq)[eq] == 1)[0]
            keep = col != col[lone]
            keys, vals = keys[keep], vals[keep]
        k, u, x = real(field, keys, vals, nu)
        if plant == "kernel":
            # the last kernel vector is lost
            keep = k < k.max(initial=0)
            k, u, x = k[keep], u[keep], x[keep]
        return k, u, x

    monkeypatch.setattr(derivations, "_sparse_kernel", planted)


def test_solved_dims_fail_when_the_last_kernel_vector_is_lost(monkeypatch):
    _planted_kernel(monkeypatch, "kernel")
    ctx = RunContext(3)
    assert check_double_der_dims(ctx) == (
        "fail", "F3", {"dims": [2, 3], "expected": [3, 4]})
    assert check_big_der_equals_inder(ctx) == (
        "fail", "F3", {"der": [11, 11], "inder": [12, 12], "how": "solved"})


def test_big_der_equals_inder_fails_when_a_zeroed_unknown_drops_out(
        monkeypatch):
    # dropping one equation of one cell changes no kernel here: each
    # unknown they set to zero is set by tens of them and by equations
    # of more cells.  With every cell of such an unknown lost, it is
    # free: a map that is no derivation joins the kernel, and validating
    # the space refuses it
    _planted_kernel(monkeypatch, "system")
    report, _ = run_battery(3, ["dims"])
    got = {c["name"]: c for c in report["checks"]}["big_der_equals_inder"]
    assert (got["status"], got["field"]) == ("fail", "F3")
    assert got["witness"] == {"error": "ValueError: basis element 0 fails "
                              "the Leibniz rule on the pair (t^0, t^0)"}
