"""specgraft benchmark: one workload per invocation, metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload graft-greedy-long --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run. ``--trace 1``
runs the same window untraced and then traced, and reports the per-layer
metrics; the end-to-end numbers never come from a traced window. Times are
normalized to a reference host speed (see host.py); the measured figures are
printed beside them. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is nonzero when a
correctness gate fails or ``specgraft`` cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# Closed loop in one process: keep native libraries from starting threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _import_checkout():
    """Make ``specgraft`` importable from this checkout's ``src/`` only."""
    src = ROOT / "src"
    if not (src / "specgraft" / "__init__.py").is_file():
        print(f"error: no specgraft package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    os.chdir(ROOT)


def environment(probe_ms: float) -> dict:
    import numpy as np

    from specgraft import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "host_probe_ms": round(probe_ms, 4),
    }


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    _import_checkout()
    import specgraft
    from host import REFERENCE_MS, HostMeter
    from metrics import end_to_end, per_layer, step_us_p99
    from tracer import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    meter = HostMeter()
    meter.sample()
    print("env " + json.dumps(environment(meter.probes[0])), flush=True)

    workload = WORKLOADS[args.workload](args.seed)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        meter.sample()
        t0 = time.perf_counter()
        parts = workload.setup()
        elapsed = time.perf_counter() - t0
        meter.sample()
        factor = meter.factor(t0, elapsed)
        raw_setups.append(elapsed)
        setups.append((elapsed * factor, {k: v * factor for k, v in parts.items()}))
    setup_s = statistics.median(s for s, _ in setups)

    window = workload.measure(args.seconds, meter)
    windows = [window]
    if args.trace:
        tracer = Tracer(specgraft)
        tracer.install()
        try:
            traced = workload.measure(args.seconds, meter)
        finally:
            tracer.remove()
        windows.append(traced)

    attempted, failures = 0, []
    for w in windows:
        n, bad = workload.check(w)
        attempted += n
        failures.extend(bad)
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)

    e2e = end_to_end(workload, window, setup_s)
    raw = end_to_end(workload, window, statistics.median(raw_setups), normalized=False)
    for name, (value, unit) in e2e.items():
        print(f"{args.workload} {name} {value:.6g} {unit} (measured {raw[name][0]:.6g})")
    print(f"{args.workload} step_us_p99 {step_us_p99(window):.6g} us (measured; a diagnostic)")
    error_rate = len(failures) / attempted if attempted else 1.0
    print(f"{args.workload} error_rate {error_rate:.6g} ratio")
    print(f"{args.workload} step_samples {len(window.step_us())} count")
    if hasattr(workload, "digest"):
        print(f"{args.workload} output_sha256 {workload.digest(window)}")
    print(
        f"host_probe_ms median={meter.median_ms():.4f} min={min(meter.probes):.4f} "
        f"max={max(meter.probes):.4f} samples={len(meter.probes)} reference={REFERENCE_MS}"
    )

    if args.trace:
        metrics = per_layer(window, traced, tracer.spans(), [p for _, p in setups], meter.median_ms())
        for name, (value, unit) in metrics.items():
            print(f"{args.workload} {name} {value:.6g} {unit}")
    else:
        metrics = e2e

    correct = not failures and attempted > 0
    print(_result(correct, max(attempted, 1), len(failures), metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
