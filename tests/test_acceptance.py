"""Acceptance gate: the ten headline guarantees of the package, one
test per criterion, each printing a single pass/FAIL line.

Shared contexts cache the heavy constructions, so the criteria run in
order against the same objects a user's battery run would build."""

import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import ckder
from ckder import check_jordan_super, check_supercommutative
from ckder.battery import CHECKS, RunContext


@lru_cache(maxsize=None)
def ctx(p):
    return RunContext(p)


def report(n, ok, detail=""):
    print(f"criterion {n}: " + ("pass" if ok else f"FAIL ({detail})"))
    assert ok, detail


def run_checks(c, group, only=None):
    """Run battery checks of one group on a shared context; anything
    other than a clean pass is collected."""
    bad = []
    for cd in CHECKS:
        if cd.group != group or (only is not None and cd.name not in only):
            continue
        status, field, witness = cd.fn(c)
        if status != "pass":
            bad.append(f"{cd.name}[{field}]: {status} {witness}")
    return bad


def test_criterion_01_jordan_validity():
    """Supercommutativity and the operator identity hold exhaustively
    for the double and for both bases of the big algebra, p in 3, 5."""
    t0 = time.perf_counter()
    bad = []
    for p in (3, 5):
        c = ctx(p)
        for alg in (c.kd(c.base).alg, c.ck(c.base, "w").alg,
                    c.ck(c.sqrt, "v").alg):
            for check in (check_supercommutative, check_jordan_super):
                v = check(alg)
                if not v:
                    bad.append(f"p={p} dim {alg.n}: {v.witness}")
    if bad:
        report(1, False, "; ".join(bad))
    dt = time.perf_counter() - t0
    report(1, dt < 60, f"runtime {dt:.1f}s exceeds the 60s budget")


def test_criterion_02_structure_suite():
    """Odd part squares onto the even part, the annihilator of the
    three even generators is the odd coefficient line, the even center
    is the coefficient algebra, and the fine grading is respected."""
    bad = []
    for p in (3, 5):
        bad += run_checks(ctx(p), "props")
    report(2, not bad, "; ".join(bad))


def test_criterion_03_double_derivation_dims():
    """Derivations of the double: (5, 5) with the odd parts equal at
    p = 5; at p = 3 the value is (3, 4), a one-line odd excess over the
    inner part, the delta companion, equal to dim ker delta."""
    c5 = ctx(5)
    der5 = c5.der_k(c5.base)
    inder5 = c5.inder_k(c5.base)
    report(3, der5.dims == (5, 5) and inder5.dims == (5, 5)
           and der5.equals(inder5),
           f"p=5 computed Der {der5.dims}, Inder {inder5.dims}")
    c3 = ctx(3)
    der3 = c3.der_k(c3.base)
    inder3 = c3.inder_k(c3.base)
    report(3, inder3.dims == (3, 3),
           f"p=3 computed Inder {inder3.dims}, expected (3, 3)")
    report(3, der3.dims == (3, 4),
           f"p=3 computed Der(K) = {der3.dims}, expected (3, 4): a "
           "one-line odd excess over the inner part, the delta "
           "companion, equal to dim ker delta")


def test_criterion_04_big_dimension_formulas():
    """Inner derivations of the big algebra have even and odd parts of
    dimension 4p each, the full space solved from scratch agrees, and
    the odd parts match."""
    t0 = time.perf_counter()
    bad = []
    for p in (3, 5):
        c = ctx(p)
        der = c.der_j(c.base, "w")
        inder = c.inder_j(c.base, "w")
        if inder.dims != (4 * p, 4 * p):
            bad.append(f"p={p}: Inder dims {inder.dims}")
        if der.dims[1] != 4 * p or inder.dim != 8 * p:
            bad.append(f"p={p}: odd dim {der.dims[1]}, total {inder.dim}")
        if not der.equals(inder):
            bad.append(f"p={p}: Der differs from Inder as a subspace")
    if bad:
        report(4, False, "; ".join(bad))
    dt = time.perf_counter() - t0
    report(4, dt < 120, f"runtime {dt:.1f}s exceeds the 120s budget")


def test_criterion_05_graded_decomposition():
    """Each fine component of the derivation algebra equals its named
    span, and the scalar-times-odd-generator family vanishes."""
    names = ("graded_component_dims", "graded_named_spans",
             "dzzx_vanishes")
    bad = []
    for p in (3, 5):
        bad += run_checks(ctx(p), "dims", only=names)
    report(5, not bad, "; ".join(bad))


def test_criterion_06_symmetry_group():
    """Four generating automorphisms close to a group of order 24
    satisfying the Coxeter presentation and fixing the scalar fine
    component pointwise, over F5, F13 and F9."""
    t0 = time.perf_counter()
    bad = []
    for p in (5, 13, 3):
        bad += run_checks(ctx(p), "s4")
    if bad:
        report(6, False, "; ".join(bad))
    dt = time.perf_counter() - t0
    report(6, dt < 30, f"runtime {dt:.1f}s exceeds the 30s budget")


def test_criterion_07_coordinate_algebra():
    """The coordinate product on the carrier component has identity
    involution, a unit, and transfers to an exact isomorphic copy of
    the double's structure constants."""
    names = ("coordinate_involution_identity", "coordinate_unit",
             "coordinate_iso_double", "coordinate_constants_match")
    bad = []
    for p in (5, 3):
        bad += run_checks(ctx(p), "coord", only=names)
    report(7, not bad, "; ".join(bad))


def test_criterion_08_bracket_transfer():
    """The scalar component of the big derivation algebra maps
    isomorphically onto the stable derivations of the double, inner
    onto inner, matching the named extension and eta identities."""
    names = ("transfer_iso_stable", "transfer_inner_onto_inner",
             "transfer_extension_identity", "transfer_eta_identity")
    bad = []
    for p in (5, 3):
        bad += run_checks(ctx(p), "coord", only=names)
    report(8, not bad, "; ".join(bad))


def test_criterion_09_lie_layer():
    """All four Lie superalgebras pass the exhaustive Jacobi check,
    the 3-graded construction has even and odd dimension 16p, the
    split-triple bridge identifies the two big constructions, and the
    big derivation algebra is the tensor construction over the
    double."""
    t0 = time.perf_counter()
    bad = []
    for p in (3, 5):
        c = ctx(p)
        bad += run_checks(c, "tkk")
        lie = c.tkk_big(c.base)
        if (lie.dim_even, lie.dim_odd) != (16 * p, 16 * p):
            bad.append(f"p={p}: 3-graded dims "
                       f"({lie.dim_even}, {lie.dim_odd})")
    if bad:
        report(9, False, "; ".join(bad))
    dt = time.perf_counter() - t0
    report(9, dt < 300, f"runtime {dt:.1f}s exceeds the 300s budget")


def test_criterion_10_deterministic_reports():
    """Two fresh processes produce byte-identical JSON reports."""
    cmd = [sys.executable, "-m", "ckder", "verify", "--p", "5",
           "--format", "json"]
    src = str(Path(ckder.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    first = subprocess.run(cmd, capture_output=True, timeout=900, env=env)
    second = subprocess.run(cmd, capture_output=True, timeout=900, env=env)
    report(10, first.returncode == 0 and second.returncode == 0,
           f"exit codes {first.returncode}, {second.returncode}")
    report(10, first.stdout == second.stdout,
           "reports differ between runs")
