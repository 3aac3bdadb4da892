"""The sparse identity checks and map brackets against dense oracles,
and the stored COO table against its dense view.

check_supercommutative, check_super_lie, check_jordan_super,
is_derivation and is_homomorphism run as joins over the nonzero
structure constants.  The oracles below are the dense contractions they
replaced, kept here only: on real tables and maps, on planted
single-constant or single-entry defects and on random sparse tables,
the two must agree on the verdict and on the witness dict, key order
included.  The same real and random tables check that the constructor
stores one canonical table whatever the presentation of its input, and
that its dense scatter (oracles.tensor) holds every stored value.

The supercommutators of maps are joins as well: the inner span, the
structure constants of a derivation space and the coordinates of every
D(a, b) over a space must equal, bitwise, the dense matrix products and
coords_of calls they replaced.

The Jacobi and Jordan sums are summed one range of their output
coordinate at a time.  Every comparison with their oracles runs at the
default term budget and at a budget of one term, where no range holds
two coordinates that have terms, so that every range boundary is
crossed.  A whole-product oracle counts the terms that each join makes
at each output coordinate, against the weights its ranges are cut
from.  The
center of the even part and the annihilator are joins too, against the
dense einsum and the dense multiplication they replaced."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ckder
from ckder import (DerivationSpace, FieldSpec, LinearMap, Subspace,
                   SuperAlgebra, check_jordan_super, check_super_lie,
                   check_supercommutative, cheng_kac, derivation_algebra,
                   is_derivation, is_homomorphism, kantor_double,
                   odd_part_squares_to_even, sl2_identification, so3,
                   super_commutator, tkk_3graded, truncated_poly,
                   w_to_v_change)
from ckder.battery import (RunContext, check_der_as_tits_double,
                           check_graded_named_spans,
                           check_s4_fixes_scalar_component)
from ckder import derivations, tkk
from ckder.derivations import (_bracket_coordinates, _inner_span,
                               _leibniz_kernel, inner_derivation_algebra)
from ckder.linalg import Eliminator, amod, kernel
from ckder.superalg import (TERM_BUDGET, _brackets, _cyclic_verdict,
                            _entries, _first_nonzero_key,
                            _jacobi_join, _jordan_join, _map_stack,
                            _named_pair_terms, _ranges, _upper_pairs,
                            _upper_weights, annihilator, center_even,
                            inner_derivation_entries, leibniz_violation)
from ckder.battery import CHECKS
from ckder.tkk import LieSuperAlgebra
from oracles import tensor

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
    t = tensor(a)
    diff = amod(a.field, t - _sign_table(a)[:, :, None] * t.transpose(1, 0, 2))
    w = _first_bad_pair(diff, a.labels)
    return w is None, w


def dense_super_lie(lie):
    """Anticommutativity, then the Jacobi identity on all triples, by
    blocked contractions of the dense structure tensor."""
    f = lie.field
    n = lie.n
    t = tensor(lie)
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


def dense_commutator_rows(field, mats, parities):
    """rows[s, t] = [mats[s], mats[t]] flattened column-major, by dense
    matrix products, one left factor at a time."""
    k, n = mats.shape[:2]
    rows = np.empty((k, k, n * n), dtype=mats.dtype)
    for s in range(k):
        sign = np.where(parities[s] * parities == 1, -1.0, 1.0)
        d = mats[s] @ mats - sign[:, None, None] * (mats @ mats[s])
        rows[s] = amod(field, d.transpose(0, 2, 1).reshape(k, n * n))
    return rows


def dense_inner_rows(a):
    """rows[i, j] = D(e_i, e_j) flattened: L_i[r, c] = T[i, c, r]."""
    return dense_commutator_rows(
        a.field, np.ascontiguousarray(tensor(a).transpose(0, 2, 1)),
        a.parities)


def dense_jordan_super(a):
    """The Jordan operator identity on all triples with x least, by
    blocked contractions of the dense operator table D(e_i, e_j)."""
    f = a.field
    n = a.n
    de = a.dim_even
    t = tensor(a)
    # dd[i, j] is the flattened matrix of D(e_i, e_j)
    dd = dense_inner_rows(a)
    # with y and z at least x the signs are constant on each parity
    # block, so they fold into the structure-tensor factors
    for x in range(n):
        zc = n - x
        tyz = np.ascontiguousarray(t[:, x:, :] if x < de else -t[:, x:, :])
        tzx = np.ascontiguousarray(t[x:, x, :] if x < de else -t[x:, x, :])
        txc_even = t[x, x:, :]                       # (y, j), y >= x
        # for odd z the third term carries (-1)^|y| on the y rows
        pv = np.ones(zc)
        pv[max(0, de - x):] = -1
        txc_odd = txc_even * pv[:, None]
        ze = max(0, de - x)                          # even z count in range
        # sgn(x,z) D(x, y z):  sum_j t[y,z,j] dd[x,j,F]
        acc = (tyz[x:].reshape(zc * zc, n) @ dd[x]).reshape(zc, zc, n * n)
        # sgn(y,x) D(y, z x):  sum_j t[z,x,j] dd[y,j,F]
        acc += np.matmul(tzx[None], dd[x:])
        # sgn(z,y) D(z, x y):  sum_j t[x,y,j] dd[z,j,F]
        if ze:
            acc[:, :ze] += np.matmul(txc_even[None], dd[x:de]) \
                .transpose(1, 0, 2)
        if max(x, de) < n:
            acc[:, ze:] += np.matmul(txc_odd[None], dd[max(x, de):]) \
                .transpose(1, 0, 2)
        acc = amod(f, acc)
        if np.any(acc):
            bad = np.argwhere(np.abs(acc).sum(axis=2) != 0)
            y, z = min((int(b), int(c)) for b, c in bad)
            triple = [x, x + y, x + z]
            return False, {"triple": triple,
                           "labels": [a.labels[m] for m in triple]}
    return True, None


def dense_is_derivation(a, d):
    f = a.field
    t = tensor(a)
    dm = d.matrix
    lhs = np.einsum("ijk,rk->ijr", t, dm, optimize=True)
    rhs1 = np.einsum("mi,mjr->ijr", dm, t, optimize=True)
    rhs2 = np.einsum("imr,mj->ijr", t, dm, optimize=True)
    if d.parity:
        rhs2 = rhs2 * (1.0 - 2.0 * a.parities)[:, None, None]
    w = _first_bad_pair(amod(f, lhs - rhs1 - rhs2), a.labels)
    return w is None, w


def dense_is_homomorphism(fmap):
    f = fmap.field
    ns, nt = fmap.source.n, fmap.target.n
    fm = fmap.matrix
    lhs = (tensor(fmap.source).reshape(ns * ns, ns) @ fm.T) \
        .reshape(ns, ns, nt)
    u = fm.T @ tensor(fmap.target).reshape(nt, nt * nt)   # (i, (b c))
    u = u.reshape(ns, nt, nt).transpose(0, 2, 1)            # (i, c, b)
    rhs = (u.reshape(ns * nt, nt) @ fm).reshape(ns, nt, ns)
    w = _first_bad_pair(amod(f, lhs - rhs.transpose(0, 2, 1)),
                        fmap.source.labels)
    return w is None, w


def dense_center_even(a):
    """The associator and commutator rows of the even part, by einsum
    over the dense tensor, and their kernel."""
    n0 = a.dim_even
    t = tensor(a)[:n0, :n0, :n0]
    assoc = np.einsum("cam,mbr->abrc", t, t, optimize=True) - \
        np.einsum("abm,cmr->abrc", t, t, optimize=True)
    comm = amod(a.field, t - t.transpose(1, 0, 2))     # (a, c, r)
    return kernel(a.field, np.vstack([
        amod(a.field, assoc.reshape(n0 * n0 * n0, n0)),
        comm.transpose(0, 2, 1).reshape(n0 * n0, n0)]))


def dense_annihilator(a, vectors):
    """The kernel of the maps z -> z s stacked, by dense products."""
    return kernel(a.field, np.vstack(
        [a.multiply(np.eye(a.n), s).T for s in vectors]))


def super_lie_at(lie, budget):
    """check_super_lie, with the Jacobi join cut into ranges of at most
    budget terms."""
    v = check_super_lie(lie)
    if budget == TERM_BUDGET or v.witness and \
            v.witness["identity"] == "anticommutativity":
        return v
    return _cyclic_verdict(lie, _jacobi_join, {"identity": "jacobi"},
                           budget=budget)


def jordan_at(a, budget):
    """check_jordan_super, with the joins cut into ranges of at most
    budget terms."""
    return _cyclic_verdict(a, _jordan_join, budget=budget)


def assert_same_at_budgets(check, a, oracle):
    """check(a, budget) agrees with oracle at the default budget and at
    a budget of one term, and the verdict at the default is returned."""
    v = check(a, TERM_BUDGET)
    assert_same(v, oracle)
    assert_same(check(a, 1), oracle)
    return v


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
    assert assert_same_at_budgets(super_lie_at, lie, dense_super_lie(lie))
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
            v = assert_same_at_budgets(super_lie_at, bad,
                                       dense_super_lie(bad))
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


def test_the_least_failing_triple_wins_over_an_earlier_range():
    # an abelian algebra with two planted chains [e0, e1] = e4,
    # [e4, e2] = e6 and [e1, e3] = e5, [e5, e2] = e0: the Jacobi sum
    # fails at (0, 1, 2) only in coordinate 6, and at the later (1, 2, 3)
    # in coordinate 0, which a range of one coordinate meets first
    brackets = {}
    for x, y, q in ((0, 1, 4), (4, 2, 6), (1, 3, 5), (5, 2, 0)):
        brackets[(x, y)], brackets[(y, x)] = [(q, 1)], [(q, -1)]
    lie = LieSuperAlgebra(F3, 7, 0, [f"e{m}" for m in range(7)],
                          _table(brackets))
    oracle = dense_super_lie(lie)
    assert oracle[1]["triple"] == [0, 1, 2]
    v = assert_same_at_budgets(super_lie_at, lie, oracle)
    assert not v


def _peak_growth_kib(setup, step):
    """What the statements step add to the peak RSS (ru_maxrss, in KiB)
    of a fresh process that ran the statements setup before them, with
    RunContext imported."""
    code = ("import resource\n"
            "from ckder.battery import RunContext\n"
            f"{setup}\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            f"{step}\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(after - before)\n")
    src = str(Path(ckder.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=600, env=env)
    assert run.returncode == 0, run.stderr
    return int(run.stdout)


def test_jacobi_check_memory_does_not_grow_with_the_table():
    """check_super_lie on the 160-dimensional Tits table over F5, whose
    join over pair rows makes 262,032 terms in all (the whole join made
    514,034 products), adds less than 16 MB to the peak RSS of a fresh
    process: its ranges hold at most TERM_BUDGET each."""
    grown = _peak_growth_kib("from ckder.superalg import check_super_lie\n"
                             "ctx = RunContext(5)\n"
                             "lie = ctx.tits_big(ctx.base)",
                             "assert check_super_lie(lie)")
    assert grown < 16 * 1024


def test_tkk_table_memory_does_not_grow_with_a_rank_stack():
    """The 3-graded table of J_w over F121 (p = 11), built after the
    Tits table over the same inner derivations, adds less than 16 MB to
    the peak RSS of a fresh process: its overlap check reads the unit
    column of the inner derivations, with no n x n^2 rank stack of the
    left multiplications (120 MB at p = 11)."""
    grown = _peak_growth_kib("ctx = RunContext(11)\n"
                             "ctx.tits_big(ctx.sqrt)",
                             "ctx.tkk_big(ctx.sqrt)")
    assert grown < 16 * 1024


@pytest.mark.parametrize("check,limit_mib", [
    (check_s4_fixes_scalar_component, 18.2 / 2),
    (check_graded_named_spans, 33.9 / 2),
    (check_der_as_tits_double, 34.5 / 2)],
    ids=["s4_fixes_scalar_component", "graded_named_spans",
         "der_as_tits_double"])
def test_map_checks_hold_no_dense_basis_stacks(check, limit_mib):
    """At p = 11, once a first run has built the shared objects, a second
    run of each check peaks (tracemalloc) below half of what it took
    while derivation spaces were stacks of dense n x n maps: 18.2, 33.9
    and 34.5 MiB.  The checks join the entries of the maps instead."""
    ctx = RunContext(11)
    assert check(ctx)[0] == "pass"
    tracemalloc.start()
    try:
        assert check(ctx)[0] == "pass"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2 ** 20


@pytest.mark.parametrize("parity", [0, 1])
def test_leibniz_solve_holds_one_range_of_terms(parity):
    """The Leibniz system of J_w over F13 has 610,272 terms per parity.
    Built and summed whole, its solve peaked (tracemalloc) at 79.6 MiB;
    built and summed one range of equations at a time, and re-summing
    only the cells that survive each peeling round, it stays below half
    of that."""
    a = RunContext(13).ck(FieldSpec(13), "w").alg
    tracemalloc.start()
    try:
        _leibniz_kernel(a, parity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_odd_square_span_builds_no_dense_table():
    """odd_part_squares_to_even on J_w over F23 (n = 184) peaked
    (tracemalloc) at 77.3 MiB while it read the dense n x n x n table,
    and kept 47.5 MiB of it cached; it canonicalizes the odd-odd rows of
    coo() instead, and SuperAlgebra has no dense form of its table."""
    a = cheng_kac(truncated_poly(FieldSpec(23))).alg
    tracemalloc.start()
    try:
        assert odd_part_squares_to_even(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert not hasattr(SuperAlgebra, "tensor")


# -- the Jordan identity -------------------------------------------------


JORDAN = {"K": lambda ctx, f: ctx.kd(f).alg,
          "J_w": lambda ctx, f: ctx.ck(f, "w").alg,
          "J_v": lambda ctx, f: ctx.ck(f, "v").alg}


@pytest.mark.parametrize("name,field", [
    (name, field) for name in JORDAN for field in (F3, F9)
    # the v basis needs sqrt(-1), so F9 only
    if field.ext or name != "J_v"])
def test_jordan_tables_agree_with_the_dense_oracle(ctx3, name, field):
    a = JORDAN[name](ctx3, field)
    assert assert_same_at_budgets(jordan_at, a, dense_jordan_super(a))


def _symmetric_perturbation(a, t):
    """a, without unit or fine labels, with the t-th stored constant
    (i, j, k) raised by one and its partner at (j, i, k) rewritten to
    keep the table supercommutative."""
    i, j, k, c = (x.tolist() for x in a.coo())
    c[t] += 1
    mate = [u for u in range(len(i)) if (i[u], j[u], k[u]) == (j[t], i[t], k[t])]
    c[mate[0]] = (-1 if a.parity(i[t]) and a.parity(j[t]) else 1) * c[t]
    return SuperAlgebra(a.field, a.dim_even, a.dim_odd, a.labels,
                        (i, j, k, c))


def test_every_symmetric_perturbation_agrees_with_the_jordan_oracle(ctx3):
    a = ctx3.ck(F3, "w").alg
    i, j, _, _ = a.coo()
    caught = 0
    for t in np.flatnonzero(i <= j):
        bad = _symmetric_perturbation(a, t)
        assert check_supercommutative(bad)
        v = assert_same_at_budgets(jordan_at, bad, dense_jordan_super(bad))
        caught += not v
    assert caught == np.count_nonzero(i <= j)


def test_jordan_check_reports_a_one_order_perturbation():
    """ab = ba = c, every other product zero, is a Jordan algebra; with
    ba raised to 2c it is not commutative, but every product of three
    elements still vanishes, so S does at every triple.  The sorted
    triples do not decide such a table, and the check fails it at its
    first asymmetric pair."""
    good = SuperAlgebra(F3, 3, 0, ["a", "b", "c"], ([0, 1], [1, 0], [2, 2],
                                                   [1, 1]))
    assert check_jordan_super(good)
    bad = SuperAlgebra(F3, 3, 0, good.labels, ([0, 1], [1, 0], [2, 2],
                                               [1, 2]))
    assert dense_jordan_super(bad) == (True, None)
    v = check_jordan_super(bad)
    assert not v
    assert v.witness == {"pair": [0, 1], "labels": ["a", "b"],
                         "identity": "supercommutativity"}
    assert list(v.witness) == ["pair", "labels", "identity"]


# -- term counts of the cyclic sums --------------------------------------


def _sorted_rotations(x, y, z):
    """How many of the rotations of (x, y, z) are sorted, elementwise."""
    return (((x <= y) & (y <= z)).astype(np.int64)
            + ((y <= z) & (z <= x)) + ((z <= x) & (x <= y)))


def _least_rotations(x, y, z):
    """How many of the rotations of (x, y, z) start with their least
    index, elementwise: the terms the whole join keyed per product."""
    return (((x <= y) & (x <= z)).astype(np.int64)
            + ((z <= x) & (z <= y)) + ((y <= z) & (y <= x)))


def _fan_out(a, count):
    """g[m, z]: the sum of count(x, y, z) over every constant T[x,y,m] of
    a, in either order."""
    i, j, k, _ = a.coo()
    g = np.zeros((a.n, a.n), dtype=np.int64)
    np.add.at(g, k, count(i[:, None], j[:, None], np.arange(a.n)[None]))
    return g


def jacobi_terms_oracle(lie, count=_sorted_rotations):
    """The terms of the whole Jacobi join at each q: every product
    T[x,y,m] T[m,z,q] makes one term at each sorted rotation of (x, y,
    z)."""
    i, j, k, _ = lie.coo()
    return np.bincount(k, weights=_fan_out(lie, count)[i, j],
                       minlength=lie.n).astype(np.int64)


def jordan_terms_oracle(a):
    """The terms of the two Jordan joins at each q.  The first makes two
    per product T[b,w,u] T[c,u,q]; the second, for each nonzero entry
    E(c, m, w, q) of the dense D(e_c, e_m) e_w and each constant
    T[a,b,m] in either order, one at each sorted rotation of (a, b,
    c)."""
    n = a.n
    nz = (tensor(a) != 0).astype(np.int64)
    first = 2 * nz.sum(axis=(0, 1)) @ nz.sum(axis=0)
    e = (dense_inner_rows(a) != 0).reshape(n, n, n, n)     # (c, m, w, q)
    second = np.einsum("cmwq,mc->q", e.astype(np.int64),
                       _fan_out(a, _sorted_rotations))
    return first, second


def ranged_terms(a, join, budget):
    """Run join as _cyclic_verdict does, and return its weights and the
    terms its batches make at each q.  No range of more than one q
    weighs more than budget, and no batch of more than one q holds more
    than budget terms."""
    weights, _, terms = join(a, budget)
    made = np.zeros(a.n, dtype=np.int64)
    for q0, q1 in _ranges(weights, budget):
        assert q1 - q0 == 1 or weights[q0:q1].sum() <= budget
        for keys, _ in terms(q0, q1):
            q = keys % a.n
            assert keys.size <= budget or np.unique(q).size == 1
            made += np.bincount(q, minlength=a.n)
    return weights, made


@pytest.mark.parametrize("budget", [TERM_BUDGET, 4096],
                         ids=["default", "4096"])
@pytest.mark.parametrize("p", [3, 5])
def test_cyclic_sums_make_the_terms_they_weigh(ctx3, ctx5, p, budget):
    """The Jacobi weights are the exact terms made at each q, ties
    included.  The Jordan weights are the exact terms of the first join,
    and the second join makes at each q the terms of the whole-product
    oracle, in batches cut from its exact counts."""
    ctx = {3: ctx3, 5: ctx5}[p]
    b, r = ctx.base, ctx.sqrt
    for lie in (ctx.tits_double(b), ctx.tits_big(b), ctx.tkk_big(b)):
        want = jacobi_terms_oracle(lie)
        weights, made = ranged_terms(lie, _jacobi_join, budget)
        assert np.array_equal(weights, want)
        assert np.array_equal(made, want)
    for a in (ctx.kd(b).alg, ctx.ck(b, "w").alg, ctx.ck(r, "v").alg):
        first, second = jordan_terms_oracle(a)
        weights, made = ranged_terms(a, _jordan_join, budget)
        assert np.array_equal(weights, first)
        assert np.array_equal(made, second)


def test_the_sorted_jacobi_join_makes_half_the_terms(ctx3):
    """tits_big over F3: the whole join keyed 143,949 terms, one per
    product and rotation that starts with its least index; the join over
    pair rows keys 72,986, one per sorted rotation.  J_w over F3 is
    summed in one range."""
    lie = ctx3.tits_big(F3)
    assert jacobi_terms_oracle(lie, _least_rotations).sum() == 143949
    weights, _, _ = _jacobi_join(lie, TERM_BUDGET)
    assert weights.sum() == jacobi_terms_oracle(lie).sum() == 72986
    weights, _, _ = _jordan_join(ctx3.ck(F3, "w").alg, TERM_BUDGET)
    assert len(list(_ranges(weights, TERM_BUDGET))) == 1


# -- the Leibniz rule ----------------------------------------------------


def _bumped(d, r, c):
    """d with its entry (r, c) raised by one."""
    m = d.matrix.copy()
    m[r, c] += 1
    return LinearMap(d.source, d.target, d.parity, m)


def derivation_bases(ctx):
    """Der(K) and Inder(J_w) over F3 and F9."""
    for f in (F3, F9):
        yield ctx.kd(f).alg, ctx.der_k(f)
        yield ctx.ck(f, "w").alg, ctx.inder_j(f, "w")


def test_derivation_bases_agree_with_the_leibniz_oracle(ctx3):
    for a, ds in derivation_bases(ctx3):
        for d in ds.even_basis + ds.odd_basis:
            v = is_derivation(a, d)
            assert v
            assert_same(v, dense_is_derivation(a, d))
            r, c = np.argwhere(d.matrix)[0]
            bad = _bumped(d, r, c)
            assert_same(is_derivation(a, bad), dense_is_derivation(a, bad))


def test_validation_checks_the_whole_stack_in_one_pass(ctx3):
    a, ds = ctx3.kd(F3).alg, ctx3.der_k(F3)
    maps = list(ds.even_basis)
    DerivationSpace(a, maps, ds.odd_basis, canonicalize=False)
    maps[1] = _bumped(maps[1], *np.argwhere(maps[1].matrix)[0])
    assert not is_derivation(a, maps[1])
    with pytest.raises(ValueError, match="basis element 1 fails"):
        DerivationSpace(a, maps, ds.odd_basis, canonicalize=False)


# e0 e1 = e1 but e1 e0 = e0: neither super symmetric nor antisymmetric
NO_MIRROR = ([0, 1], [1, 0], [1, 0], [1, 1])


def test_mirror_sign_of_the_tables():
    """+1 on a supercommutative table, -1 on a super anticommutative one,
    None on a table that is neither."""
    assert kantor_double(truncated_poly(F3)).alg.mirror_sign == 1.0
    assert so3(F3).mirror_sign == -1.0
    assert SuperAlgebra(F3, 2, 0, ["e0", "e1"], NO_MIRROR).mirror_sign is None


def test_leibniz_check_keys_every_pair_on_a_table_without_mirror():
    """On e0 e1 = e1, e1 e0 = e0 the map e0 -> 0, e1 -> e1 keeps the rule
    at (e0, e0), (e0, e1) and (e1, e1), and breaks it only at (e1, e0):
    d(e1 e0) = 0, but d(e1) e0 + e1 d(e0) = e0.  The rule at a pair i > j
    is no copy of another here, so the check must key it."""
    a = SuperAlgebra(F3, 2, 0, ["e0", "e1"], NO_MIRROR)
    d = LinearMap(a, a, 0, [[0, 0], [0, 1]])
    v = is_derivation(a, d)
    assert v.witness == {"pair": [1, 0], "labels": ["e1", "e0"]}
    assert_same(v, dense_is_derivation(a, d))


def test_leibniz_check_keys_every_pair_for_a_map_off_its_parity():
    """A map declared odd whose entries t -> 2 t^2 and t x -> 2 t^2 x are
    even has no mirror rule on the supercommutative K, and breaks the
    rule first at (t^0 x, t^1), a pair i > j."""
    a = kantor_double(truncated_poly(F3)).alg
    m = np.zeros((6, 6))
    m[2, 1] = m[5, 4] = 2
    d = LinearMap(a, a, 1, m, check=False)
    v = is_derivation(a, d)
    assert v.witness == {"pair": [3, 1], "labels": ["t^0*x", "t^1"]}
    assert_same(v, dense_is_derivation(a, d))


BIG = FieldSpec(67108859)


def test_leibniz_sums_refuse_terms_beyond_the_exact_range():
    # e0 e0 = e1: the cell of d[0, 0] in the equation at (0, 0, e1)
    # takes -1 from d(e0) e0 and -1 from e0 d(e0), two terms
    def algebra(f):
        return SuperAlgebra(f, 2, 0, ["e0", "e1"], ([0], [0], [1], [1]))

    # e0 -> a e0 + b e1 and e1 -> 2a e1
    assert len(_leibniz_kernel(algebra(F3), 0)[0]) == 2
    with pytest.raises(ValueError, match="exact range"):
        _leibniz_kernel(algebra(BIG), 0)


# -- homomorphisms -------------------------------------------------------


def _rescaled_column(fmap, col):
    """fmap with column col doubled."""
    m = fmap.matrix.copy()
    m[:, col] *= 2
    return LinearMap(fmap.source, fmap.target, fmap.parity, m)


def homomorphisms(ctx):
    """The change of basis J_w -> J_v, the coordinate isomorphism phi and
    the sl2 bridge over F9, each with the columns worth altering."""
    change = w_to_v_change(ctx.ck(F9, "w"), ctx.ck(F9, "v"))
    yield change, range(change.source.n)
    yield ctx.phi(), range(ctx.phi().source.n)
    bridge = sl2_identification(ctx.tits_big(F9), ctx.tkk_big(F9)).map
    yield bridge, range(0, bridge.source.n, 7)


def test_homomorphisms_agree_with_the_dense_oracle(ctx3):
    for fmap, cols in homomorphisms(ctx3):
        v = is_homomorphism(fmap)
        assert v
        assert_same(v, dense_is_homomorphism(fmap))
        caught = 0
        for col in cols:
            bad = _rescaled_column(fmap, col)
            v = is_homomorphism(bad)
            assert_same(v, dense_is_homomorphism(bad))
            caught += not v
        assert caught > 0


def test_homomorphism_join_stays_exact_near_the_bound():
    # e e = a e, f f = b f and e -> lam f, with lam, b and a = lam b of
    # size p: lam^2 b is near p^3, far past 2**53, unless f(e) e is
    # reduced before it meets f a second time
    lam, b = BIG.p - 2, BIG.p - 1
    a = lam * b % BIG.p

    def line(c):
        return SuperAlgebra(BIG, 1, 0, ["e"], ([0], [0], [0], [c]))

    assert is_homomorphism(LinearMap(line(a), line(b), 0, [[lam]]))
    v = is_homomorphism(LinearMap(line(a + 1), line(b), 0, [[lam]]))
    assert not v and v.witness["pair"] == [0, 0]


# -- random sparse tables ------------------------------------------------


@st.composite
def super_tables(draw, symmetries=(-1, 1, None)):
    """A random sparse parity-homogeneous table with n <= 8, made
    super symmetric (+1), super antisymmetric (-1) or left as drawn,
    whichever of symmetries is drawn.

    Returns the algebra and a second presentation of its entries: in a
    drawn order, with values shifted by multiples of p and with entries
    of value zero (mod p) on keys the table does not use."""
    field = draw(st.sampled_from([F3, F9]))
    n = draw(st.integers(2, 8))
    dim_even = draw(st.integers(0, n))
    symmetry = draw(st.sampled_from(symmetries))
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
    assert_same(super_lie_at(a, 1), dense_super_lie(a))


@settings(max_examples=300)
@given(super_tables(symmetries=(1,)))
def test_random_symmetric_tables_agree_with_the_jordan_oracle(table):
    a, _ = table
    assert_same(check_jordan_super(a), dense_jordan_super(a))
    assert_same(jordan_at(a, 1), dense_jordan_super(a))


@settings(max_examples=200)
@given(super_tables(), st.data())
def test_random_maps_agree_with_the_leibniz_oracle(table, data):
    """Derivations of random tables, super symmetric, antisymmetric or
    neither, with one entry raised, and random maps that may leave their
    parity: the witness is the dense oracle's first failing pair."""
    a = table[0]
    f, n = a.field, a.n
    ds = derivation_algebra(a)
    maps = ds.even_basis + ds.odd_basis
    for d in maps[:3]:
        r, c = np.argwhere(d.matrix)[0]
        bad = _bumped(d, r, c)
        assert_same(is_derivation(a, bad), dense_is_derivation(a, bad))
    cells = data.draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2)),
        max_size=4))
    m = np.zeros((n, n), dtype=f.dtype)
    for r, c, x in cells:
        m[r, c] = x
    d = LinearMap(a, a, data.draw(st.integers(0, 1)), m, check=False)
    assert_same(is_derivation(a, d), dense_is_derivation(a, d))


def assert_tensor_scatters_coo(a):
    """The dense scatter of coo() holds its values at their keys, and
    nothing else: coo() names no key twice and stores no zero."""
    i, j, k, c = a.coo()
    t = tensor(a)
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
    assert np.count_nonzero(tensor(a)) == c.size
    assert np.array_equal(tensor(a)[i, j, k], c)


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


# -- the even center and the annihilator ---------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_even_center_of_j_w_agrees_with_the_dense_einsum(p):
    ctx = RunContext(p)
    for f in dict.fromkeys((ctx.base, ctx.sqrt)):
        ck = ctx.ck(f, "w")
        got = center_even(ck.alg)
        assert got.dim == ck.dz
        assert_bitwise(got.basis, dense_center_even(ck.alg).basis)
        ws = [ck.alg.basis_vector(ck.even_index(fam, 0)) for fam in (1, 2, 3)]
        assert_bitwise(annihilator(ck.alg, ws).basis,
                       dense_annihilator(ck.alg, ws).basis)


@settings(max_examples=200)
@given(super_tables(), st.integers(0, 2 ** 32 - 1))
def test_random_tables_give_the_dense_center_and_annihilator(table, seed):
    a, _ = table
    assert_bitwise(center_even(a).basis, dense_center_even(a).basis)
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, a.field.p, (int(rng.integers(1, 3)), a.n))
    vectors = vectors * (rng.random((len(vectors), a.n)) < 0.5)
    assert_bitwise(annihilator(a, vectors).basis,
                   dense_annihilator(a, vectors).basis)


# -- map brackets --------------------------------------------------------


def dense_inner_span(a):
    """The canonical RREF of the D(e_i, e_j) of each parity, every row
    fed to one eliminator per parity, one left factor at a time."""
    n = a.n
    rows = dense_inner_rows(a)
    elims = [Eliminator(a.field, n * n), Eliminator(a.field, n * n)]
    for i in range(n):
        par = (a.parities[i] + a.parities) % 2
        keep = np.any(rows[i], axis=1)
        for parity in (0, 1):
            block = rows[i][keep & (par == parity)]
            if block.size:
                elims[parity].add_rows(block)
    return [e.rref()[0] for e in elims]


def _dense_coordinates(ds, rows, parities, message):
    """coords[s, t] of the maps rows[s, t] of parity parities[s, t] over
    the basis of ds, even elements first, by coords_of."""
    m0 = ds.dims[0]
    coords = np.zeros(rows.shape[:2] + (ds.dim,), dtype=ds.algebra.field.dtype)
    spans = [flat_span(ds.algebra, ds.even_basis),
             flat_span(ds.algebra, ds.odd_basis)]
    for s in range(rows.shape[0]):
        for parity, off in ((0, 0), (1, m0)):
            sel = parities[s] == parity
            co = spans[parity].coords_of(rows[s][sel])
            if co is None:
                raise ValueError(message)
            coords[s, sel, off:off + co.shape[1]] = co
    return coords


def dense_structure_constants(ds):
    basis = ds.even_basis + ds.odd_basis
    if not basis:
        return np.zeros((0, 0, 0), dtype=ds.algebra.field.dtype)
    par = np.asarray([d.parity for d in basis])
    rows = dense_commutator_rows(ds.algebra.field,
                                 np.stack([d.matrix for d in basis]), par)
    return _dense_coordinates(ds, rows, (par[:, None] + par) % 2,
                              "derivation space is not bracket closed")


def dense_inner_coordinates(a, ds):
    """The coordinates of every D(e_a, e_b) over ds, as in the tensor
    and 3-graded constructions."""
    return _dense_coordinates(
        ds, dense_inner_rows(a), (a.parities[:, None] + a.parities) % 2,
        "inner derivation escapes the derivation space")


def sparse_inner_coordinates(a, ds):
    q, u, x = ds.coordinates(*inner_derivation_entries(a))
    coords = np.zeros((a.n * a.n, ds.dim), dtype=a.field.dtype)
    coords[q, u] = x
    return coords.reshape(a.n, a.n, ds.dim)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def flat_basis(maps, a):
    return np.stack([d.flatten() for d in maps]) if maps else \
        np.zeros((0, a.n * a.n), dtype=a.field.dtype)


def flat_span(a, maps):
    """The dense oracle of a span of maps: their flattened matrices as
    a canonical Subspace."""
    return Subspace(a.field, a.n * a.n, flat_basis(maps, a))


def assert_inner_span_matches(a, even, odd):
    """even and odd, the sparse inner span of a, against the oracle."""
    for maps, want in zip((even, odd), dense_inner_span(a)):
        assert_bitwise(flat_basis(maps, a), want)


@pytest.fixture(scope="module")
def ctx5():
    return RunContext(5)


F5 = FieldSpec(5)
INNER = {
    "K": lambda ctx, f: (ctx.kd(f).alg, ctx.inder_k(f)),
    "J_w": lambda ctx, f: (ctx.ck(f, "w").alg, ctx.inder_j(f, "w")),
    "J_v": lambda ctx, f: (ctx.ck(f, "v").alg, ctx.inder_j(f, "v")),
}
INNER_CASES = [(name, field) for name in INNER for field in (F3, F9)
               # the v basis needs sqrt(-1), so F9 only
               if field.ext or name != "J_v"] + [("J_w", F5)]


@pytest.mark.parametrize("name,field", INNER_CASES,
                         ids=[f"{n}-{f}" for n, f in INNER_CASES])
def test_inner_spans_and_coordinates_agree_with_the_dense_oracle(
        ctx3, ctx5, name, field):
    a, ds = INNER[name](ctx5 if field.p == 5 else ctx3, field)
    assert_inner_span_matches(a, ds.even_basis, ds.odd_basis)
    assert_bitwise(sparse_inner_coordinates(a, ds),
                   dense_inner_coordinates(a, ds))


SPACES = {
    "Der(K)": lambda ctx, f: ctx.der_k(f),
    "Inder(J_w)": lambda ctx, f: ctx.inder_j(f, "w"),
    "stable_der_double": lambda ctx, f: ctx.bar_k(f),
}


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
@pytest.mark.parametrize("name", list(SPACES))
def test_structure_constants_agree_with_the_dense_oracle(ctx3, name, field):
    ds = SPACES[name](ctx3, field)
    got = ds.structure_constants()
    assert np.any(got)
    assert_bitwise(got, dense_structure_constants(ds))


def test_an_open_space_is_refused_like_the_oracle(ctx3):
    # the odd derivations of K alone: their brackets are even and
    # nonzero, and the space has no even part to hold them
    a, der = ctx3.kd(F3).alg, ctx3.der_k(F3)
    ds = DerivationSpace(a, [], der.odd_basis, canonicalize=False)
    for bracket in (ds.structure_constants,
                    lambda: dense_structure_constants(ds)):
        with pytest.raises(ValueError, match="not bracket closed"):
            bracket()


def test_an_escaping_inner_derivation_is_refused_like_the_oracle(ctx3):
    # Inder(J_w) without its first even basis map, which some D(a, b)
    # needs
    a, inder = ctx3.ck(F3, "w").alg, ctx3.inder_j(F3, "w")
    ds = DerivationSpace(a, inder.even_basis[1:], inder.odd_basis,
                         canonicalize=False)
    assert ds.coordinates(*inner_derivation_entries(a)) is None
    for build in (lambda: tkk_3graded(a, inder=ds),
                  lambda: dense_inner_coordinates(a, ds)):
        with pytest.raises(ValueError, match="escapes the derivation space"):
            build()


def random_stack(rng, field):
    """Up to six random sparse maps of mixed parity on a random carrier
    of dimension at most 7, each entry nonzero with a drawn density."""
    n = int(rng.integers(1, 8))
    dim_even = int(rng.integers(0, n + 1))
    carrier = SuperAlgebra(field, dim_even, n - dim_even,
                           [f"e{i}" for i in range(n)], ([], [], [], []))
    return n, random_maps(rng, carrier, int(rng.integers(1, 7)))


def random_maps(rng, carrier, k):
    """k random sparse maps of mixed parity on carrier, each entry
    nonzero with a drawn density."""
    field, n, par = carrier.field, carrier.n, carrier.parities
    maps = []
    for _ in range(k):
        parity = int(rng.integers(0, 2))
        allowed = par[:, None] == (par[None, :] + parity) % 2
        vals = rng.integers(0, field.p, (n, n)) + (
            1j * rng.integers(0, field.p, (n, n)) if field.ext else 0)
        vals = vals * (allowed & (rng.random((n, n)) < rng.random()))
        maps.append(LinearMap(carrier, carrier, parity, vals))
    return maps


@pytest.mark.parametrize("field", [F3, F5, F9], ids=["F3", "F5", "F9"])
@pytest.mark.parametrize("seed", range(20))
def test_commutator_entries_match_super_commutator(field, seed):
    """_brackets of a stack with itself, and of a stack with another one
    of a different length, key q = s k + t, gives every dense
    super_commutator of the pair (s, t)."""
    rng = np.random.default_rng(seed)
    n, maps = random_stack(rng, field)
    other = random_maps(rng, maps[0].source, len(maps) + 1)

    def stack(maps):
        return (np.asarray([d.parity for d in maps]),
                _entries(field, np.stack([d.matrix for d in maps])))

    for left, right in ((maps, maps), (maps, other)):
        keys, vals = _brackets(field, n, stack(left), stack(right))
        assert np.all(np.diff(keys) > 0) and np.all(vals != 0)
        got = np.zeros((len(left), len(right), n * n), dtype=field.dtype)
        got.flat[keys] = vals
        for s, ms in enumerate(left):
            for t, mt in enumerate(right):
                want = super_commutator(ms, mt)
                assert want.parity == (ms.parity + mt.parity) % 2
                assert_bitwise(got[s, t], want.flatten())


@settings(max_examples=150)
@given(super_tables())
def test_random_tables_give_the_dense_brackets(table):
    a, _ = table
    # D(e_a, e_b) need not be a derivation of a random table
    stack, _ = _inner_span(a)
    ds = DerivationSpace.from_entries(a, *stack, canonicalize=False,
                                      validate=False)
    assert_inner_span_matches(a, ds.even_basis, ds.odd_basis)
    assert_bitwise(sparse_inner_coordinates(a, ds),
                   dense_inner_coordinates(a, ds))
    try:
        want = dense_structure_constants(ds)
    except ValueError:
        with pytest.raises(ValueError, match="not bracket closed"):
            ds.structure_constants()
    else:
        assert_bitwise(ds.structure_constants(), want)


# -- pair joins at the mirror --------------------------------------------
#
# D(e_v, e_u) = -(-1)^(|u||v|) D(e_u, e_v) and [d_t, d_s] =
# -(-1)^(|s||t|) [d_s, d_t] on every table, so the inner span joins only
# the pairs u <= v and the bracket of a space only s <= t, each in
# ranges of its first index; the Leibniz check runs in ranges of maps.
# At a budget of one term every range holds a single index.


def dense_coordinates_of(ds, coords, count):
    """Sparse coordinates (q, u, x) as a dense (count, dim) array."""
    out = np.zeros((count, ds.dim), dtype=ds.algebra.field.dtype)
    out[coords[0], coords[1]] = coords[2]
    return out


@settings(max_examples=150)
@given(super_tables())
def test_mirror_inner_span_agrees_with_the_whole_pair_oracle(table):
    """The pairs u <= v make as many terms per u as their weights count,
    and the span of their D(e_u, e_v), canonicalized range by range, has
    the canonical entries of the span of every D(e_u, e_v); the
    coordinates it keeps are those of every ordered pair."""
    a, _ = table
    n = a.n
    i, j, k, c = a.coo()
    left = (a.parities, (i, k, j, c))
    keys, _ = _named_pair_terms(n, left, left, _upper_pairs(0, n, n))
    made = np.bincount(_upper_pairs(0, n, n)[keys // n ** 2, 0], minlength=n)
    assert np.array_equal(_upper_weights(n, left), made)
    for budget in (1, TERM_BUDGET):
        stack, co = _inner_span(a, budget)
        ds = DerivationSpace.from_entries(a, *stack, canonicalize=False,
                                          validate=False)
        assert_inner_span_matches(a, ds.even_basis, ds.odd_basis)
        assert_bitwise(dense_coordinates_of(ds, co, n * n).reshape(
            n, n, ds.dim), dense_inner_coordinates(a, ds))


@settings(max_examples=150)
@given(super_tables())
def test_mirror_bracket_agrees_with_the_whole_pair_oracle(table):
    """The brackets of the pairs s <= t, in ranges of s, give the
    coordinates of every pair, or refuse a space that is not closed,
    on the derivations and on the inner span of a random table."""
    a, _ = table
    stack, _ = _inner_span(a)
    spaces = (derivation_algebra(a), DerivationSpace.from_entries(
        a, *stack, canonicalize=False, validate=False))
    for ds, budget in ((ds, b) for ds in spaces for b in (1, TERM_BUDGET)):
        try:
            want = dense_structure_constants(ds)
        except ValueError:
            with pytest.raises(ValueError, match="not bracket closed"):
                _bracket_coordinates(ds, budget)
            continue
        got = dense_coordinates_of(ds, _bracket_coordinates(ds, budget),
                                   ds.dim ** 2)
        assert_bitwise(got.reshape(want.shape), want)


def dense_leibniz_violation(a, maps):
    """The first map of a list, and its first pair, that break the
    Leibniz rule by the dense oracle, as (s, i, j), or None."""
    for s, d in enumerate(maps):
        ok, w = dense_is_derivation(a, d)
        if not ok:
            return (s, *w["pair"])
    return None


@settings(max_examples=150)
@given(super_tables(), st.data())
def test_ranged_leibniz_check_gives_the_whole_pair_witness(table, data):
    """The derivations of a random table, some raised at one entry, and
    a random map that may leave its parity: the ranged check names the
    first failing map and pair of the dense oracle at both budgets."""
    a = table[0]
    n = a.n
    ds = derivation_algebra(a)
    maps = ds.even_basis + ds.odd_basis
    for s in data.draw(st.lists(st.integers(0, max(len(maps) - 1, 0)),
                                max_size=2)) if maps else []:
        r, c = np.argwhere(maps[s].matrix)[0]
        maps[s] = _bumped(maps[s], r, c)
    m = np.zeros((n, n), dtype=a.field.dtype)
    for r, c, x in data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2)),
            max_size=3)):
        m[r, c] = x
    maps.insert(data.draw(st.integers(0, len(maps))),
                LinearMap(a, a, data.draw(st.integers(0, 1)), m, check=False))
    want = dense_leibniz_violation(a, maps)
    stack = _map_stack(a.field, maps)
    for budget in (1, TERM_BUDGET):
        assert leibniz_violation(a, *stack, budget=budget) == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pair_joins_are_bitwise_equal_across_budgets(p):
    """The entries of Inder and Der of K and J_w, the coordinates that
    the inner span keeps and the bracket of Inder(J_w), over F_p and the
    field with sqrt(-1), do not depend on the budget: a budget of one
    term gives the default's bits."""
    ctx = RunContext(p)
    for f in dict.fromkeys((ctx.base, ctx.sqrt)):
        for a in (ctx.kd(f).alg, ctx.ck(f, "w").alg):
            one, whole = (inner_derivation_algebra(a, b)
                          for b in (1, TERM_BUDGET))
            for x, y in zip(one.entries() + one.inner_coordinates,
                            whole.entries() + whole.inner_coordinates):
                assert_bitwise(x, y)
            for x, y in zip(derivation_algebra(a, 1).entries(),
                            derivation_algebra(a).entries()):
                assert_bitwise(x, y)
        for x, y in zip(_bracket_coordinates(whole, 1),
                        whole.bracket_coordinates()):
            assert_bitwise(x, y)


@pytest.fixture(scope="module")
def j_w_23():
    """J_w over F23 (n = 184, 11,872 constants) and its inner span."""
    a = cheng_kac(truncated_poly(FieldSpec(23))).alg
    return a, inner_derivation_algebra(a)


def traced_peak_mib(step):
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_inner_span_holds_one_range_of_terms(j_w_23):
    """The inner span of J_w over F23, with its validation, traced 99.6
    MiB as one join of every ordered pair (114.6 MiB at most per join in
    a p = 23 battery); in ranges of u over the pairs u <= v it stays
    below a quarter of the latter (about 6 MiB here)."""
    a, _ = j_w_23
    assert traced_peak_mib(lambda: inner_derivation_algebra(a)) \
        < 114.6 / 4


def test_bracket_holds_one_range_of_terms(j_w_23):
    """bracket_coordinates of Inder(J_w) over F23 traced 156.5 MiB as one
    join of every ordered pair (180.1 MiB at most in a p = 23 battery);
    in ranges of s over the pairs s <= t it stays below a quarter of the
    latter (about 4 MiB here)."""
    _, ds = j_w_23
    assert traced_peak_mib(lambda: _bracket_coordinates(ds)) < 180.1 / 4


def test_leibniz_check_holds_one_range_of_terms(j_w_23):
    """The Leibniz check of the 184 basis maps of Inder(J_w) over F23
    traced 72.9 MiB as one join (87.0 MiB at most in a p = 23 battery);
    in ranges of maps it stays below a quarter of the latter (about 4
    MiB here)."""
    a, ds = j_w_23
    assert traced_peak_mib(lambda: leibniz_violation(a, *ds.stack())) \
        < 87.0 / 4


def test_the_inner_join_of_j_w_runs_once_per_field(monkeypatch):
    """Over a whole battery at p = 3 the derivation and Lie layers join
    each pair u <= v of basis vectors of J_w once over F3 and never over
    F9, where Inder(J_w) and its Lie tables are lifts: the Tits and
    3-graded tables read the coordinates that the inner span kept."""
    joined = {}

    for mod in (derivations, tkk):
        def counted(a, pairs=None, real=mod.inner_derivation_entries):
            got = np.divmod(np.arange(a.n ** 2), a.n) if pairs is None \
                else np.asarray(pairs).reshape(-1, 2).T
            joined.setdefault(id(a), []).append(np.sort(got, axis=0))
            return real(a, pairs)
        monkeypatch.setattr(mod, "inner_derivation_entries", counted)
    ctx = RunContext(3)
    for cd in CHECKS:
        assert cd.fn(ctx)[0] == "pass"
    for f in (ctx.base, ctx.sqrt):
        a = ctx.ck(f, "w").alg
        u, v = np.concatenate(joined.get(id(a), [np.zeros((2, 0), int)]),
                              axis=1)
        count = np.bincount(u * a.n + v, minlength=a.n * a.n)
        upper = np.triu(np.ones((a.n, a.n), dtype=bool)).ravel()
        assert not count[~upper].any()
        assert np.all(count[upper] == (0 if f.ext else 1))
