"""Benchmark of `ckder verify`: end-to-end time, memory and correctness,
and a traced run that splits the time by module.

    python3 perfbench/run.py --workload dims-p5 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35   # every workload
    python3 perfbench/selftest.py                           # self-test

Each repetition calls the public entry point `ckder.cli.main(["verify",
"--p", P, "--checks", G, "--format", "json"])` in a fresh child process
(`child.py`), built from the checkout's own `src/`.  The load is a
closed loop: one client and one child at a time, with BLAS threads set
to the number of usable cores.  The inputs are fixed by p, because the
algebras are determined by p; the seed only orders how the children of
a run interleave.

With `--trace 0` a run repeats the verify call while the next one still
fits in `--seconds` (at least once) and adds set-up probes, children
that only import `ckder.cli`.  It reports, as medians over the run:

    verify_s     wall time of the `main` call (and its maximum)
    cpu_s        CPU time of the `main` call, summed over all threads
    setup_s      child spawn until `ckder.cli` is imported
    peak_rss_mb  peak RSS of the verify child alone (`os.wait4`)

and `check_fail_ratio`, the checks that missed their pinned status over
the checks attempted.  With `--trace 1` it runs untraced and traced
children in pairs and reports the per-layer metrics of `tracing.py`.
Every repetition is gated: exit code, each pinned check at its pinned
status, no `fail` in the report, and a report byte-identical to the
first one of the run.  The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the whole record, with
the environment, goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import LAYER_METRICS, layer_metrics, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A run starts no child after RUN_LIMIT_S and kills any child still
# running at HARD_LIMIT_S, so that it exits inside three minutes.
RUN_LIMIT_S = 150
HARD_LIMIT_S = 170
SETUP_PROBES = 5

# Check names of each `verify` group, as the battery reports them.
GROUP_CHECKS = {
    "jordan": ["double_supercommutative", "double_jordan_identity",
               "big_w_supercommutative", "big_w_jordan_identity",
               "big_v_supercommutative", "big_v_jordan_identity",
               "w_v_equivalence"],
    "props": ["odd_part_squares_to_even", "w_annihilator_is_zx",
              "even_center_is_z", "fine_grading_respected"],
    "dims": ["double_der_dims", "double_inder_dims", "double_odd_split",
             "big_inder_dims", "big_der_equals_inder",
             "graded_component_dims", "graded_named_spans", "dzzx_vanishes"],
    "s4": ["s4_generators_automorphisms", "s4_closure_order",
           "s4_coxeter_relations", "s4_fixes_scalar_component"],
    "coord": ["coordinate_involution_identity", "coordinate_unit",
              "coordinate_iso_double", "coordinate_constants_match",
              "transfer_iso_stable", "transfer_inner_onto_inner",
              "transfer_extension_identity", "transfer_eta_identity"],
    "tkk": ["so3_structure", "tits_double_lie", "tits_double_stable_lie",
            "tits_big_lie", "tkk_big_lie", "tkk_big_dims",
            "tkk_big_3graded", "tkk_sl2_bridge", "der_as_tits_double"],
}


def all_pass(*groups) -> dict:
    return {name: "pass" for g in groups for name in GROUP_CHECKS[g]}


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    checks: str
    pins: dict = field(hash=False)   # check name -> pinned status


WORKLOADS = {w.name: w for w in (
    # The only full battery short enough to repeat; it touches every
    # module over F3 and F9, and the dense Jacobi check dominates it.
    Workload("battery-p3", 3, "all", all_pass(*GROUP_CHECKS)),
    # The Leibniz solve of J over F5, nearly all of it in the eliminator;
    # no identity checker but derivation validation runs.
    Workload("dims-p5", 5, "dims", all_pass("dims")),
    # The Jordan identity checker over F3 (float64) and F9 (complex128),
    # so a change that favours one scalar representation shows.
    Workload("jordan-p3", 3, "jordan", all_pass("jordan")),
)}

END_TO_END = {"verify_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
# Printed, not in the closing JSON: a maximum over a handful of samples
# is too noisy to gate on, and check_fail_ratio is 0 when all is well;
# the JSON carries it as `failed` over `attempted`.
EXTRA_UNITS = {"verify_max_s": "s", "check_fail_ratio": "ratio"}


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    out: dict | None     # the child's last JSON line, None if unreadable

    @property
    def setup_s(self):
        return None if self.out is None else self.out["setup_s"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CKDER_MAX_P", None)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args: list[str], kill_at: float) -> Child:
    """Run child.py to completion, killing it at monotonic time `kill_at`;
    the peak RSS comes from this child's own rusage."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE)
    timer = threading.Timer(max(kill_at - t0, 0.0), proc.kill)
    timer.start()
    try:
        data = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
    wall = time.monotonic() - t0
    lines = data.decode("utf-8", "replace").strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        out = None
    if not isinstance(out, dict) or "ready" not in out:
        out = None
    else:
        if not Path(out["ckder"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"child imported ckder from {out['ckder']}, "
                             f"not from {SRC}")
        out["setup_s"] = out["ready"] - t0
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out)


def verify_child(w: Workload, kill_at: float,
                 trace_path: Path | None = None) -> Child:
    args = ["--p", str(w.p), "--checks", w.checks]
    if trace_path is not None:
        args += ["--trace", str(trace_path)]
    return spawn(args, kill_at)


class Gate:
    """Correctness verdicts of one run.  A repetition fails every pinned
    check when it crashed, when its exit code disagrees with its report,
    or when its report differs from the run's first; otherwise it fails
    each check that is not at its pinned status or reports `fail`."""

    def __init__(self, w: Workload):
        self.w = w
        self.first_report = None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, c: Child):
        pins = self.w.pins
        self.attempted += len(pins)
        text = None if c.out is None else c.out.get("report")
        try:
            report = json.loads(text)
        except (TypeError, ValueError):
            self._fail(len(pins), f"no report (exit code {c.rc})")
            return
        if self.first_report is None:
            self.first_report = text
        status = {ch["name"]: ch["status"] for ch in report["checks"]}
        failing = {name for name, st in status.items() if st == "fail"}
        if (c.rc != 0) != bool(failing):
            self._fail(len(pins), f"exit code {c.rc} with {len(failing)} "
                                  "failing checks")
        elif text != self.first_report:
            self._fail(len(pins), "report differs from the run's first")
        else:
            bad = failing | {n for n, want in pins.items()
                             if status.get(n) != want}
            self._fail(min(len(bad), len(pins)), *(
                f"{n}: {status.get(n, 'missing')}, pinned "
                f"{pins.get(n, 'absent')}" for n in sorted(bad)))

    def _fail(self, count: int, *reasons: str):
        self.failed += count
        self.reasons += reasons

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def measure(w: Workload, seed: int, seconds: int) -> dict:
    """Untraced run: end-to-end metrics."""
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + min(seconds, RUN_LIMIT_S)
    kill_at = start + HARD_LIMIT_S
    g = Gate(w)
    first = spawn(["--env"], kill_at)
    probes = [first]
    probes_last = rng.random() < 0.5
    if not probes_last:
        probes += [spawn([], kill_at) for _ in range(SETUP_PROBES - 1)]
    reserve = (SETUP_PROBES - 1) * first.wall_s if probes_last else 0.0
    reps: list[Child] = []
    est = 0.0
    while not reps or time.monotonic() + est + reserve <= deadline:
        c = verify_child(w, kill_at)
        g.check(c)
        reps.append(c)
        est = max(est, c.wall_s)
    if probes_last:
        probes += [spawn([], kill_at) for _ in range(SETUP_PROBES - 1)]
    done = [c.out for c in reps if c.out is not None and "verify_s" in c.out]
    verify = [o["verify_s"] for o in done]
    cpu = [o["cpu_s"] for o in done]
    setups = [c.setup_s for c in probes + reps if c.setup_s is not None]
    rss = [c.rss_mb for c in reps]
    return {
        "env": first.out.get("env") if first.out else None,
        "gate": g,
        "metrics": {
            "verify_s": (median(verify), len(verify)),
            "cpu_s": (median(cpu), len(cpu)),
            "peak_rss_mb": (median(rss), len(rss)),
            "setup_s": (median(setups), len(setups)),
        },
        "extra": {
            "verify_max_s": (max(verify, default=float("nan")), len(verify)),
            "check_fail_ratio": (g.fail_ratio, g.attempted),
        },
        "samples": {"verify_s": verify, "cpu_s": cpu, "setup_s": setups,
                    "peak_rss_mb": rss},
    }


def measure_traced(w: Workload, seed: int, seconds: int) -> dict:
    """Traced run: untraced and traced children in pairs, per-layer
    metrics from the traced ones."""
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + min(seconds, RUN_LIMIT_S)
    kill_at = start + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{w.name}-seed{seed}.json"
    g = Gate(w)
    env = spawn(["--env"], kill_at).out
    plain: list[float] = []
    traced: list[tuple[float, dict]] = []    # (verify_s, layer metrics)
    top: dict[str, float] = {}
    est = 0.0
    pairs = 0
    while not pairs or time.monotonic() + est <= deadline:
        pairs += 1
        t0 = time.monotonic()
        for is_traced in rng.sample([False, True], 2):
            c = verify_child(w, kill_at, spans if is_traced else None)
            g.check(c)
            if c.out is None or "verify_s" not in c.out:
                continue
            if not is_traced:
                plain.append(c.out["verify_s"])
                continue
            dump = json.loads(spans.read_text(encoding="utf-8"))
            traced.append((c.out["verify_s"], layer_metrics(dump)))
            for name, s in self_times(dump["spans"])[1].items():
                top[name] = top.get(name, 0.0) + s
        est = max(est, time.monotonic() - t0)
    metrics = {}
    for name in LAYER_METRICS:
        if name != "trace_overhead_s":
            metrics[name] = (median([lm[name][0] for _, lm in traced]),
                             median([lm[name][1] for _, lm in traced]))
    overhead = median([v for v, _ in traced]) - median(plain)
    metrics["trace_overhead_s"] = (overhead, min(len(plain), len(traced)))
    n = max(len(traced), 1)
    return {
        "env": env.get("env") if env else None,
        "gate": g,
        "metrics": metrics,
        "extra": {"check_fail_ratio": (g.fail_ratio, g.attempted)},
        "top_self": sorted(((k, v / n) for k, v in top.items()),
                           key=lambda kv: -kv[1])[:8],
        "samples": {"traced_verify_s": [v for v, _ in traced],
                    "untraced_verify_s": plain},
    }


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def units_of(trace: bool) -> dict:
    if trace:
        return {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    return END_TO_END


def print_table(w: Workload, res: dict, trace: bool):
    units = {**units_of(trace), **EXTRA_UNITS}
    for name, (value, n) in {**res["metrics"], **res["extra"]}.items():
        what = "checks" if name == "check_fail_ratio" else "n"
        print(f"  {w.name:<11} {name:<32} {value:>14.6g} {units[name]:<6} "
              f"({n:g} {what})")
    if trace:
        for name, s in res["top_self"]:
            print(f"  {w.name:<11} self time {name:<45} {s:10.4f} s")
    for reason in res["gate"].reasons[:20]:
        print(f"  {w.name:<11} GATE {reason}")


def run(workloads: list[Workload], seed: int, seconds: int,
        trace: bool) -> dict:
    """Measure each workload in turn, print its table, save the record."""
    ident = source_identity()
    results = {}
    for w in workloads:
        res = measure_traced(w, seed, seconds) if trace \
            else measure(w, seed, seconds)
        if not results:
            env = res["env"] or {}
            print(f"env: nproc {env.get('nproc')}, python "
                  f"{env.get('python')}, numpy {env.get('numpy')}, "
                  f"{env.get('blas')} {env.get('blas_version')} with "
                  f"{env.get('blas_threads')} threads, commit "
                  f"{ident['commit']}, src sha256 {ident['src_sha256'][:12]}")
        print_table(w, res, trace)
        results[w.name] = res
    OUT.mkdir(exist_ok=True)
    record = {
        "seed": seed, "seconds": seconds, "trace": int(trace), **ident,
        "workloads": {
            n: {"env": r["env"], "metrics": r["metrics"],
                "extra": r["extra"], "samples": r["samples"],
                "gate": {"attempted": r["gate"].attempted,
                         "failed": r["gate"].failed,
                         "reasons": r["gate"].reasons},
                **({"top_self": r["top_self"]} if trace else {})}
            for n, r in results.items()},
    }
    tag = workloads[0].name if len(workloads) == 1 else "all"
    (OUT / f"result-{tag}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return results


def summary(results: dict, trace: bool) -> dict:
    units = units_of(trace)
    single = len(results) == 1
    metrics = {}
    for name, res in results.items():
        for m, unit in units.items():
            key = m if single else f"{name}.{m}"
            metrics[key] = {"value": res["metrics"][m][0], "unit": unit}
    attempted = sum(r["gate"].attempted for r in results.values())
    failed = sum(r["gate"].failed for r in results.values())
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ckder" / "cli.py").is_file():
        print(f"run.py: no ckder sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = run([WORKLOADS[n] for n in names], args.seed, args.seconds,
                  bool(args.trace))
    print(json.dumps(summary(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
