"""One benchmark repetition, run in a fresh process by `run.py`.

    python3 child.py                      # set-up only: import ckder.cli
    python3 child.py --env                # ... and describe the environment
    python3 child.py --p 3 --checks all [--trace SPANS.json]

Calls `ckder.cli.main(["verify", "--p", P, "--checks", G, "--format",
"json"])` with its standard output captured.  The last line printed is
one JSON object: `ready` (the monotonic clock right after `import
ckder.cli`, which the parent compares with its own clock at spawn),
`verify_s` and `cpu_s` (wall and process CPU time of the `main` call,
CPU summed over all threads), `rc` and `report`.  The process exits
with `main`'s return code.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import sys
import time


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int)
    ap.add_argument("--checks")
    ap.add_argument("--trace", help="write spans to this JSON file")
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args()

    import ckder.cli
    out = {"ready": time.monotonic(), "ckder": ckder.cli.__file__}
    if args.env:
        out["env"] = environment()
    rc = 0
    if args.p is not None:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        argv = ["verify", "--p", str(args.p), "--checks", args.checks,
                "--format", "json"]
        buf = io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(buf):
            rc = ckder.cli.main(argv)
        out["verify_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            tracer.dump(args.trace)
        out["rc"] = rc
        out["report"] = buf.getvalue()
    print(json.dumps(out))
    return rc


if __name__ == "__main__":
    sys.exit(main())
