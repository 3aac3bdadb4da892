"""Planted defects in the battery: each check that runs a sparse identity
join turns to `fail`, with a witness, when the object it checks is
broken in one place."""

import dataclasses

import numpy as np

from ckder import LinearMap, check_supercommutative
from ckder import battery
from ckder.battery import (RunContext, check_big_w_jordan_identity,
                           check_tkk_sl2_bridge, check_w_v_equivalence)
from test_sparse_checks import _symmetric_perturbation


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
