"""Per-module spans around the public functions of `ckder`.

`install()` runs inside a benchmark child after `ckder.cli` is imported.
It wraps the public functions of each ckder module (the layers), a few
public methods (the eliminator, the lazy `RunContext` accessors), and
counts calls to the `FieldSpec` scalar methods.  Each wrapper is bound in
every ckder module that holds the function, because `from .superalg
import is_homomorphism` leaves a separate binding in each importer, and
in `battery.CHECKS`.  No ckder source file is changed.

A span is (name, start, end, parent, counts): `parent` is the index of
the enclosing span, so self time is a span's duration minus that of its
direct children.  Spans stay in memory and are written out once, by
`Tracer.dump`, when the run ends.  `layer_metrics` turns a dump into
the per-layer metrics listed in `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import weakref
from time import perf_counter

import numpy as np

MODULES = ("field", "linalg", "superalg", "constructions", "derivations",
           "symmetry", "tkk", "battery", "cli")

# Leaf helpers called per scalar or per vector; a span on each call would
# cost more than the work it measures.  Their time stays in the caller.
UNTRACED = {"linalg.amod", "linalg.iszero", "linalg.mm", "linalg.as_complex",
            "superalg.vector_parity", "field.is_odd_prime",
            "battery.field_label"}

ELIMINATOR_METHODS = ("add_rows", "rref", "kernel_rows")

# The four identity checkers; each call contracts one dense n^3 table
# (two for a homomorphism), in the dtype named by the second field.
CHECKERS = {"check_jordan_super": "work", "check_super_lie": "work",
            "is_derivation": "work", "is_homomorphism": "complex"}

# name -> (unit, the end-to-end metric and workloads it should move)
LAYER_METRICS = {
    "linalg.eliminator_s": (
        "s", "verify_s on dims-p5 and battery-p3"),
    "linalg.rows_fed": ("count", "verify_s on dims-p5"),
    "linalg.pivots": ("count", "verify_s on dims-p5"),
    "linalg.pivot_yield": ("ratio", "verify_s on dims-p5"),
    "linalg.complex_row_share": (
        "ratio", "cpu_s on battery-p3 and jordan-p3"),
    "superalg.check_super_lie_s": ("s", "verify_s on battery-p3"),
    "superalg.check_jordan_super_s": ("s", "verify_s on jordan-p3"),
    "superalg.is_derivation_s": (
        "s", "verify_s on dims-p5 and battery-p3"),
    "superalg.is_homomorphism_s": (
        "s", "verify_s on dims-p5 and battery-p3"),
    "superalg.table_nnz": (
        "count", "peak_rss_mb and verify_s on battery-p3 and jordan-p3"),
    "superalg.table_entries": (
        "count", "peak_rss_mb and verify_s on battery-p3 and jordan-p3"),
    "superalg.dense_bytes_computed": (
        "B", "peak_rss_mb and verify_s on battery-p3 and jordan-p3"),
    "derivations.leibniz_self_s": ("s", "verify_s on dims-p5"),
    "derivations.leibniz_unknowns": ("count", "verify_s on dims-p5"),
    "derivations.inner_span_s": (
        "s", "verify_s on dims-p5 and battery-p3"),
    "derivations.grade_s": ("s", "verify_s on dims-p5 and battery-p3"),
    "tkk.table_build_s": (
        "s", "verify_s and peak_rss_mb on battery-p3"),
    "tkk.bridge_s": ("s", "verify_s on battery-p3"),
    "symmetry.s": ("s", "none (below 1% of battery-p3)"),
    "constructions.s": ("s", "none (below 1% of battery-p3)"),
    "field.scalar_calls": ("count", "verify_s on dims-p5"),
    "battery.build_s": ("s", "verify_s on every workload"),
    "battery.check_self_s": ("s", "verify_s on every workload"),
    "cli.render_s": ("s", "none (expected negligible)"),
    "trace_overhead_s": ("s", "none (traced minus untraced verify_s)"),
}


class Tracer:
    """Span recorder; one per traced child process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scalar_calls = 0
        self.check_names: list[str] = []
        self._nnz = weakref.WeakKeyDictionary()

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; `after(args, result, state)` returns the
        span's counts, `state` being what `before(args)` returned."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                rec[4] = after(args, result, state)
            return result
        return traced

    def counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.scalar_calls += 1
            return fn(*args, **kwargs)
        return counted

    # -- counts recorded at the span boundaries --------------------------

    @staticmethod
    def _elim_before(args):
        return args[0].rank

    @staticmethod
    def _elim_after(args, result, rank_before):
        elim, shape = args[0], np.shape(args[1])
        fed = 1 if len(shape) == 1 else shape[0]
        return {"rows": fed, "pivots": elim.rank - rank_before,
                "complex": int(bool(elim.field.ext))}

    def _table(self, alg, itemsize):
        if alg not in self._nnz:
            self._nnz[alg] = sum(len(t) for t in alg.products.values())
        n = alg.n
        return {"nnz": self._nnz[alg], "entries": n ** 3,
                "bytes": n ** 3 * itemsize}

    def _checker_after(self, dtype):
        def after(args, result, state):
            if dtype == "complex":
                algs = [args[0].source, args[0].target]
            else:
                algs = [args[0]]
            out = {"nnz": 0, "entries": 0, "bytes": 0}
            for a in algs:
                size = 16 if dtype == "complex" or a.field.ext else 8
                for k, v in self._table(a, size).items():
                    out[k] += v
            return out
        return after

    def _accessor(self, name, fn):
        """Span on a lazy RunContext accessor; the first call with given
        arguments is the one that builds, and is flagged so."""
        seen = set()

        def before(args):
            key = (id(args[0]), args[1:])
            first = key not in seen
            seen.add(key)
            return first

        def after(args, result, first):
            return {"build": 1} if first else None
        return self.span(name, fn, before, after)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the layer functions and rebind them wherever held."""
        pkg = importlib.import_module("ckder")
        mods = {m: importlib.import_module(f"ckder.{m}") for m in MODULES}
        swap = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                qual = f"{short}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and qual not in UNTRACED):
                    after = None
                    if short == "superalg" and name in CHECKERS:
                        after = self._checker_after(CHECKERS[name])
                    elif qual == "derivations.derivation_algebra":
                        # the Leibniz system has one unknown per matrix
                        # entry of the map: n^2 over both parities
                        def after(args, result, state):
                            return {"unknowns": args[0].n ** 2}
                    swap[obj] = self.span(qual, obj, after=after)
        for holder in (pkg, *mods.values()):
            for name, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in swap:
                    setattr(holder, name, swap[obj])
        battery = mods["battery"]
        for cd in battery.CHECKS:
            cd.fn = swap.get(cd.fn, cd.fn)
            self.check_names.append(f"battery.{cd.fn.__name__}")

        elim = mods["linalg"].Eliminator
        for meth in ELIMINATOR_METHODS:
            orig = vars(elim)[meth]
            if meth == "add_rows":
                wrapped = self.span(f"linalg.Eliminator.{meth}", orig,
                                    self._elim_before, self._elim_after)
            else:
                wrapped = self.span(f"linalg.Eliminator.{meth}", orig)
            setattr(elim, meth, wrapped)
        ctx = battery.RunContext
        for meth, orig in list(vars(ctx).items()):
            if inspect.isfunction(orig) and not meth.startswith("_"):
                setattr(ctx, meth,
                        self._accessor(f"battery.RunContext.{meth}", orig))
        spec = mods["field"].FieldSpec
        for meth, orig in list(vars(spec).items()):
            if inspect.isfunction(orig) and not meth.startswith("_"):
                setattr(spec, meth, self.counted(orig))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counters": {"field.scalar_calls": self.scalar_calls},
                       "check_names": self.check_names}, fh)


def self_times(spans):
    """(durations, self time by span name, calls by span name)."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, _, _, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
    return dur, self_s, calls


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced run: name -> (value, samples),
    `samples` being the number of spans or calls behind the value."""
    spans = dump["spans"]
    dur, self_s, calls = self_times(spans)

    def own(*names):
        return (sum(self_s.get(n, 0.0) for n in names),
                sum(calls.get(n, 0) for n in names))

    def module(prefix):
        names = [n for n in self_s if n.startswith(prefix + ".")]
        return own(*names)

    def total(names, key):
        return sum(c.get(key, 0) for n, *_, c in spans if n in names and c)

    out = {}
    elim = [f"linalg.Eliminator.{m}" for m in ELIMINATOR_METHODS]
    out["linalg.eliminator_s"] = own(*elim)
    adds = calls.get("linalg.Eliminator.add_rows", 0)
    rows = total({"linalg.Eliminator.add_rows"}, "rows")
    pivots = total({"linalg.Eliminator.add_rows"}, "pivots")
    crow = sum(c["rows"] for n, *_, c in spans
               if n == "linalg.Eliminator.add_rows" and c["complex"])
    out["linalg.rows_fed"] = (rows, adds)
    out["linalg.pivots"] = (pivots, adds)
    out["linalg.pivot_yield"] = (pivots / rows if rows else 0.0, adds)
    out["linalg.complex_row_share"] = (crow / rows if rows else 0.0, adds)
    for fn in ("check_super_lie", "check_jordan_super", "is_derivation",
               "is_homomorphism"):
        out[f"superalg.{fn}_s"] = own(f"superalg.{fn}")
    checkers = {f"superalg.{fn}" for fn in CHECKERS}
    ncheck = sum(calls.get(n, 0) for n in checkers)
    out["superalg.table_nnz"] = (total(checkers, "nnz"), ncheck)
    out["superalg.table_entries"] = (total(checkers, "entries"), ncheck)
    out["superalg.dense_bytes_computed"] = (total(checkers, "bytes"), ncheck)
    out["derivations.leibniz_self_s"] = own("derivations.derivation_algebra")
    out["derivations.leibniz_unknowns"] = (
        total({"derivations.derivation_algebra"}, "unknowns"),
        calls.get("derivations.derivation_algebra", 0))
    out["derivations.inner_span_s"] = own(
        "derivations.inner_derivation_algebra")
    out["derivations.grade_s"] = own("derivations.grade_derivations")
    out["tkk.table_build_s"] = own("tkk.tits_construction", "tkk.tkk_3graded")
    out["tkk.bridge_s"] = own("tkk.sl2_identification", "tkk.der_as_tkk")
    out["symmetry.s"] = module("symmetry")
    out["constructions.s"] = module("constructions")
    scalar_calls = dump["counters"]["field.scalar_calls"]
    out["field.scalar_calls"] = (scalar_calls, scalar_calls)

    # A build span is outermost when no enclosing span is also a build.
    checks = set(dump["check_names"])
    build_s = check_s = 0.0
    nbuild = ncheck_spans = 0
    for i, (name, _, _, parent, counts) in enumerate(spans):
        if name in checks:
            check_s += dur[i]
            ncheck_spans += 1
        if not (counts and counts.get("build")):
            continue
        up = parent
        while up >= 0 and not (spans[up][4] and spans[up][4].get("build")):
            up = spans[up][3]
        if up < 0:
            build_s += dur[i]
            nbuild += 1
            inside = parent
            while inside >= 0 and spans[inside][0] not in checks:
                inside = spans[inside][3]
            if inside >= 0:
                check_s -= dur[i]
    out["battery.build_s"] = (build_s, nbuild)
    out["battery.check_self_s"] = (check_s, ncheck_spans)
    main_s = sum(d for (n, *_), d in zip(spans, dur) if n == "cli.main")
    run_s = sum(d for (n, *_), d in zip(spans, dur)
                if n == "battery.run_battery")
    out["cli.render_s"] = (main_s - run_s, calls.get("cli.main", 0))
    return out
