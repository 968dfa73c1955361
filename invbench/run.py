"""The invdist benchmark.

Run from the root of a checkout:

    python3 invbench/run.py --workload {invariance,rank,census} --seed N \
        --seconds S --trace {0,1}

``--workload`` takes several names, and all three when it is left out; each
workload then prints its own block, ending in its own result line.

With ``--trace 0`` it times the workload's ``run_suite``/``emit_report``
calls with tracing off and prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics.
Both check every verdict against its known answer.  The metric names are
those in ``BENCHMARK.json``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in one child process with one thread; set-up time is
measured over several further child processes that stop at the first check.
The shared machine this was defined on changes speed for minutes at a time,
so every timed call and every set-up probe is followed by a calibration run
(``calibrate.py``, in its own process).  Times are reported in reference
seconds: each call's time is divided by the mean of the calibration times on
either side of it, each set-up time by the run's median set-up calibration
time, and both are multiplied by ``calibrate.REFERENCE_S``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S, measure as calibrate
from spans import SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = os.path.join(HERE, "workload.py")
WORKLOADS = ("invariance", "rank", "census")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 160

# Unit and the counter behind each per-layer metric that is not a span's
# self time or call count.
EXTRA_LAYER_METRICS = {
    "weyl.compose.terms_out": "count",
    "distributions.apply_weyl.terms_out": "count",
    "scalars.rank.cells": "count",
    "scalars.scalar_mul.calls": "count",
    "scalars.gauss_mul.calls": "count",
    "orbits.witness.failures": "count",
}


def child(args, timeout: float) -> tuple:
    """(start, parsed last line) of one workload.py child process."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, WORKLOAD, *map(str, args)],
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def pass_time(ratios) -> float:
    """One pass of the workload in reference seconds: the sum over its calls
    of each call's median over passes, where ``ratios[p][c]`` is call c of
    pass p divided by the calibration times around it."""
    return REFERENCE_S * sum(statistics.median(call)
                             for call in zip(*ratios))


def layer_metrics(result: dict) -> dict:
    counts, self_times = result["counts"], result["self_times"]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.self_s"] = (self_times.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
    for name, unit in EXTRA_LAYER_METRICS.items():
        metrics[name] = (counts.get(name, 0), unit)
    attempted = counts.get("orbits.witness.attempted", 0)
    metrics["orbits.witness.exact_frac"] = (
        counts.get("orbits.witness.exact", 0) / attempted if attempted
        else 0.0, "ratio")
    metrics["trace.overhead_s"] = (pass_time(result["traced_ratios"])
                                   - pass_time(result["ratios"]), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "invdist", "cli.py")):
        print("error: run from the root of an invdist checkout "
              "(src/invdist is missing)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    print(f"python {platform.python_version()}, {platform.platform()}, "
          f"nproc {os.cpu_count()}")
    return max(run_workload(name, args.seed, args.seconds, args.trace, spec)
               for name in args.workload)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> int:
    print(f"workload {name}, seed {seed}, {seconds:g} s, trace {trace}")
    setups, setup_cals = [], []

    def probe_setup(count: int) -> None:
        for _ in range(0 if trace else count):
            start, probe = child([name, seed, "--setup-only"], 30)
            setups.append(probe["first_check"] - start)
            setup_cals.append(calibrate())

    # Probes on both sides of the workload meet the machine at two times.
    probe_setup(SETUP_PROBES // 2)
    _, result = child([name, seed, seconds, trace], CHILD_TIMEOUT_S)
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    totals = [sum(p) for p in result["walls"]]
    attempted, wrong = result["attempted"], result["wrong"]
    for cid, status in sorted(result["statuses"].items()):
        print(f"check {cid}: {status}")
    for line in result["errors"]:
        print(f"error inside run_suite: {line}")
    for line in result["problems"]:
        print(f"problem: {line}")
    if trace:
        metrics = layer_metrics(result)
        wanted = spec["per_layer"]
    else:
        cals = [c for p in result["cals"] for c in p]
        metrics = {
            "wall_s": (pass_time(result["ratios"]), "s"),
            # Probes are too short to bracket; the median of their
            # calibration runs stands for the machine's speed.
            "setup_s": (statistics.median(setups) * REFERENCE_S
                        / statistics.median(setup_cals), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        wanted = spec["end_to_end"]
        print(f"passes: {len(totals)}, unscaled pass times min "
              f"{min(totals):.4f} median {statistics.median(totals):.4f} "
              f"max {max(totals):.4f} s; calibration median "
              f"{statistics.median(cals):.4f} s against {REFERENCE_S} s")
        print(f"setup_s: {len(setups)} unscaled samples, "
              + " ".join(f"{v:.4f}" for v in sorted(setups)))
    print(f"wrong_verdict_frac = {wrong / attempted:.6g} "
          f"({wrong} of the seed's {attempted} checks not PASS)")
    if {m["name"] for m in wanted} != set(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 3
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": wrong,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
