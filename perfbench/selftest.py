"""Self-test of the benchmark on a tiny workload (`--p 3 --checks props`,
well under a second per repetition).

    python3 perfbench/selftest.py

It checks that every metric, end-to-end and per-layer, is printed by
name with its unit, both in the table and in the closing JSON line, and
that a deliberately wrong pinned status raises `check_fail_ratio`, which
shows that the correctness gate can fail.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def printed_metrics(w: run.Workload, trace: bool):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        results = run.run([w], seed=1, seconds=1, trace=trace)
        print(json.dumps(run.summary(results, trace)))
    lines = buf.getvalue().splitlines()
    last = json.loads(lines[-1])
    check(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
          f"tiny workload not correct: {lines[-1]}")
    units = run.units_of(trace)
    check(set(last["metrics"]) == set(units),
          f"JSON metrics {sorted(last['metrics'])} != {sorted(units)}")
    for name, unit in units.items():
        check(last["metrics"][name]["unit"] == unit, f"{name} unit")
        check(any(f" {name} " in ln and f" {unit} " in ln
                  for ln in lines[:-1]), f"{name} [{unit}] not in table")
    check(any(" check_fail_ratio " in ln for ln in lines[:-1]),
          "check_fail_ratio not in table")


def main() -> int:
    tiny = run.Workload("selftest-props", 3, "props", run.all_pass("props"))
    printed_metrics(tiny, trace=False)
    printed_metrics(tiny, trace=True)

    wrong = run.Workload("selftest-wrong-pin", 3, "props",
                         dict(tiny.pins, fine_grading_respected="fail"))
    with contextlib.redirect_stdout(io.StringIO()):
        res = run.run([wrong], seed=1, seconds=1, trace=False)
    ratio, attempted = res[wrong.name]["extra"]["check_fail_ratio"]
    check(ratio > 0, f"a wrong pin left check_fail_ratio at {ratio}")
    print(f"selftest ok: wrong pin gives check_fail_ratio {ratio:.3f} "
          f"over {attempted} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
