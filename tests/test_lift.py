"""Objects defined over F_p and needed over F_{p^2}: the derivation
spaces of the double K and of the w-basis algebra, and the Tits and
3-graded tables built on them, are built once over F_p and lifted.
Their canonical bases and tables do not change under extension of
scalars, so each lift must equal, bitwise, the object built directly
over F_{p^2}, and a battery run must solve, span and join over F_{p^2}
only what needs sqrt(-1): the v-basis algebra."""

import numpy as np
import pytest

from ckder import battery, tkk
from ckder.battery import RunContext, run_battery
from ckder.constructions import cheng_kac, kantor_double, truncated_poly
from ckder.derivations import (DerivationSpace, derivation_algebra,
                               inner_derivation_algebra, stable_der_double)
from ckder.tkk import TitsAlgebra, TkkAlgebra, tits_construction, tkk_3graded

SPACES = ("der_k", "inder_k", "bar_k", "inder_j")
TABLES = ("tits_double", "tits_double_stable", "tits_big", "tkk_big")


def extension_builds(f):
    """Every lifted object, built directly over the field f."""
    dalg = truncated_poly(f)
    kd, ck = kantor_double(dalg), cheng_kac(dalg, basis="w")
    der_k = derivation_algebra(kd.alg)
    inder_k = inner_derivation_algebra(kd.alg)
    bar_k = stable_der_double(kd, der_k, inder_k)
    inder_j = inner_derivation_algebra(ck.alg)
    return {
        "der_k": der_k, "inder_k": inder_k, "bar_k": bar_k,
        "inder_j": inder_j,
        "tits_double": tits_construction(kd.alg, inder_k, inder=inder_k),
        "tits_double_stable": tits_construction(kd.alg, bar_k,
                                                inder=inder_k),
        "tits_big": tits_construction(ck.alg, inder_j, inder=inder_j),
        "tkk_big": tkk_3graded(ck.alg, inder=inder_j),
    }


def lifted(ctx, name):
    f = ctx.sqrt
    return ctx.inder_j(f, "w") if name == "inder_j" else \
        getattr(ctx, name)(f)


def assert_same_space(got, want):
    assert isinstance(got, DerivationSpace)
    assert got.dims == want.dims
    for x, y in zip(got.entries(), want.entries(), strict=True):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("p", [3, 7, 11])
def test_lifts_equal_the_extension_builds(p):
    ctx = RunContext(p)
    f = ctx.sqrt
    assert f.ext
    want = extension_builds(f)
    for name in SPACES:
        got = lifted(ctx, name)
        assert got.algebra.field == f
        assert got.entries()[3].dtype == np.complex128
        assert_same_space(got, want[name])
    # the tables' algebras and spaces are the context's own lifts
    assert ctx.tits_big(f).jalg is ctx.ck(f, "w").alg
    assert ctx.tkk_big(f).dspace is ctx.inder_j(f, "w")
    assert ctx.tits_double_stable(f).dspace is ctx.bar_k(f)
    for name in TABLES:
        got, new = lifted(ctx, name), want[name]
        assert type(got) is type(new)
        assert got.field == f
        assert (got.dim_even, got.dim_odd) == (new.dim_even, new.dim_odd)
        assert got.labels == new.labels and got.grading == new.grading
        assert got.coo()[3].dtype == np.complex128
        for x, y in zip(got.coo(), new.coo(), strict=True):
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()
        assert_same_space(got.dspace, new.dspace)


def test_a_lifted_space_is_checked_against_the_leibniz_rule():
    ctx = RunContext(3)
    f = ctx.sqrt
    der_k = ctx.der_k(ctx.base)
    # the same space, lifted for the w-basis algebra of a larger
    # dimension, is no space of derivations there
    with pytest.raises(ValueError, match="Leibniz"):
        der_k.over(ctx.ck(f, "w").alg)


def test_a_lifted_table_goes_through_the_normalizing_constructor():
    ctx = RunContext(3)
    f = ctx.sqrt
    tits = ctx.tits_double(ctx.base)
    lift = tits.over(ctx.kd(f).alg, ctx.inder_k(f))
    assert isinstance(lift, TitsAlgebra)
    for x in lift.coo():
        assert not x.flags.writeable
    # a space of the wrong dims does not fit the table's labels
    with pytest.raises(ValueError, match="label count"):
        tits.over(ctx.kd(f).alg, ctx.der_k(f))
    assert isinstance(ctx.tkk_big(f), TkkAlgebra)


@pytest.mark.parametrize("p", [3, 7])
def test_a_battery_builds_over_the_extension_only_for_the_v_basis(
        p, monkeypatch):
    """Every solve, span and Tits or 3-graded join that a battery run
    makes over F_{p^2} is on the v-basis algebra: the rest are lifted
    from F_p."""
    v_algebras, calls = [], []
    real_ck = battery.cheng_kac

    def ck(dalg, basis):
        out = real_ck(dalg, basis=basis)
        if basis == "v":
            v_algebras.append(out.alg)
        return out

    monkeypatch.setattr(battery, "cheng_kac", ck)

    def counted(name, real):
        def call(*args, **kwargs):
            a = args[0]
            a = getattr(a, "alg", a)      # stable_der_double takes K
            if a.field.ext:
                calls.append((name, any(a is v for v in v_algebras)))
            return real(*args, **kwargs)
        return call

    for module in (battery, tkk):
        for name in ("derivation_algebra", "inner_derivation_algebra",
                     "stable_der_double", "tits_construction",
                     "tkk_3graded"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    report, _ = run_battery(p)
    assert report["summary"]["pass"] == 40
    assert sorted(calls) == [("derivation_algebra", True),
                             ("inner_derivation_algebra", True)]
