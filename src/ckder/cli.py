"""Command-line front end: verify, dims, export.

`ckder verify --p 5` runs the full check battery and prints one line
per check; `--format json` emits the deterministic report instead.
`ckder dims --p 5` prints the dimension table.  `ckder export` writes
one algebra's structure constants as JSON.  The environment variable
CKDER_MAX_P bounds the characteristic (default 13).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .battery import (DEFAULT_MAX_P, GROUPS, RunContext, field_label,
                      run_battery)
from .constructions import differential_to_json
from .field import is_odd_prime
from .tkk import so3, tkk_3graded

ALGEBRA_NAMES = ("Z", "K", "jck_w", "jck_v", "so3", "tkk_K", "ck_lie")


def _max_p(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("CKDER_MAX_P")
    if raw is None:
        return DEFAULT_MAX_P
    try:
        return int(raw)
    except ValueError:
        parser.error(f"CKDER_MAX_P must be an integer, got {raw!r}")


def _check_p(p: int, parser: argparse.ArgumentParser) -> int:
    bound = _max_p(parser)
    if not is_odd_prime(p):
        parser.error(f"p must be an odd prime, got {p}")
    if p > bound:
        parser.error(f"p = {p} exceeds the bound {bound} "
                     "(raise CKDER_MAX_P to override)")
    return p


def _parse_groups(raw: str, parser: argparse.ArgumentParser):
    if raw.strip() == "all":
        return list(GROUPS)
    groups = [g.strip() for g in raw.split(",") if g.strip()]
    bad = [g for g in groups if g not in GROUPS]
    if bad:
        parser.error(f"unknown checks: {', '.join(bad)} "
                     f"(known: all, {', '.join(GROUPS)})")
    return groups


def _witness_line(witness) -> str:
    text = json.dumps(witness, ensure_ascii=False)
    if len(text) > 200:
        text = text[:197] + "..."
    return text


def cmd_verify(args, parser) -> int:
    p = _check_p(args.p, parser)
    groups = _parse_groups(args.checks, parser)
    text = args.format == "text"

    if text:
        print(f"ckder {__version__} verify: p = {p}, "
              f"groups: {', '.join(groups)}")

    def progress(r):
        shown = "FAIL" if r.status == "fail" else r.status
        print(f"{shown:>8}  {r.name:<32} [{r.field:<4}] {r.seconds:7.2f}s")
        if r.status == "fail" and r.witness is not None:
            print(f"          {_witness_line(r.witness)}")

    report, results = run_battery(p, groups,
                                  progress=progress if text else None)
    counts = report["summary"]
    if text:
        total = sum(r.seconds for r in results)
        print(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
              f"{counts['skipped']} skipped  (total {total:.1f}s)")
        for note in report["notes"]:
            print(f"note: {note}")
    else:
        print(json.dumps(report, ensure_ascii=False, indent=2))
    return 0 if counts["fail"] == 0 else 1


def _fmt_dims(dims) -> str:
    return f"{dims[0] + dims[1]} ({dims[0]}|{dims[1]})"


def cmd_dims(args, parser) -> int:
    p = _check_p(args.p, parser)
    ctx = RunContext(p)
    f = ctx.base
    dz = ctx.dalg(f).dim
    jn = ctx.ck(f, "w").alg
    der_k = ctx.der_k(f)
    inder_k = ctx.inder_k(f)
    inder_j = ctx.inder_j(f, "w")
    der_j = ctx.der_j(f, "w")
    graded = ctx.graded_j(f, "w")

    print(f"p = {p}  (base field {field_label(f)}, "
          f"sqrt field {field_label(ctx.sqrt)})")
    print(f"dim Z = {dz}    dim J = {jn.n} "
          f"({jn.dim_even}|{jn.n - jn.dim_even})")
    print(f"Der(K)   = {_fmt_dims(der_k.dims)}    "
          f"Inder(K) = {_fmt_dims(inder_k.dims)}")
    print(f"Der(J)   = {_fmt_dims(der_j.dims)}")
    print(f"Inder(J) = {_fmt_dims(inder_j.dims)}")
    print("fine components of Der(J), w basis:")
    cells = []
    for grade, dims in sorted(graded.dims_table().items()):
        cells.append(f"[{grade[0]},{grade[1]}]: {dims[0]}|{dims[1]}")
    print("  " + "   ".join(cells))
    tk_dim = 6 * dz + inder_k.dim
    kj_dim = 3 * jn.n + inder_j.dim
    print(f"T(K) dim = {tk_dim}    K(J) dim = {kj_dim}")
    return 0


def _export_obj(name: str, ctx: RunContext):
    if name == "Z":
        return differential_to_json(ctx.dalg(ctx.base))
    if name == "K":
        return ctx.kd(ctx.base).alg.to_json()
    if name == "jck_w":
        return ctx.ck(ctx.base, "w").alg.to_json()
    if name == "jck_v":
        return ctx.ck(ctx.sqrt, "v").alg.to_json()
    if name == "so3":
        return so3(ctx.base).to_json()
    if name == "tkk_K":
        return tkk_3graded(ctx.kd(ctx.base).alg).to_json()
    if name == "ck_lie":
        a = ctx.ck(ctx.sqrt, "v").alg
        return tkk_3graded(a, inder=ctx.inder_j(ctx.sqrt, "v")).to_json()
    raise ValueError(f"unknown algebra {name!r}")


def cmd_export(args, parser) -> int:
    p = _check_p(args.p, parser)
    ctx = RunContext(p)
    obj = _export_obj(args.algebra, ctx)
    out = Path(args.out)
    try:
        out.write_text(json.dumps(obj, ensure_ascii=False, indent=2) + "\n",
                       encoding="utf-8")
    except OSError as exc:
        print(f"ckder: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ckder",
        description="Exact verification of the rank-8 Jordan superalgebra "
                    "family over small prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the check battery")
    pv.add_argument("--p", type=int, required=True,
                    help="odd prime characteristic")
    pv.add_argument("--checks", default="all",
                    help="comma-separated groups, or 'all' "
                         f"({', '.join(GROUPS)})")
    pv.add_argument("--format", choices=("text", "json"), default="text",
                    help="text shows per-check wall times; json is "
                         "byte-stable across runs")

    pd = sub.add_parser("dims", help="print the dimension table")
    pd.add_argument("--p", type=int, required=True)

    pe = sub.add_parser("export", help="write one algebra as JSON")
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--algebra", required=True, choices=ALGEBRA_NAMES)
    pe.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args, parser)
    if args.command == "dims":
        return cmd_dims(args, parser)
    return cmd_export(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
