"""One workload in one process: timed passes, the verdict oracle, and an
optional traced pass.  Each timed call is followed by a calibration run in a
separate process (``calibrate.py``), never at the same time as the call.

Usage (from the root of a checkout; ``invbench/run.py`` calls this):

    python3 invbench/workload.py WORKLOAD SEED SECONDS TRACE
    python3 invbench/workload.py WORKLOAD SEED --setup-only

The process prints one JSON object on its last line.  ``first_check`` is
``time.monotonic()`` just before the first ``run_suite`` call, so the parent
can time interpreter start, the ``invdist`` import and config validation.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

SRC = os.path.join(os.getcwd(), "src")
if not os.path.isfile(os.path.join(SRC, "invdist", "cli.py")):
    sys.exit(f"error: no invdist sources under {SRC}; run from the root "
             f"of a checkout")
sys.path.insert(0, SRC)

from invdist import cli  # noqa: E402
from invdist.records import PASS  # noqa: E402

# Each workload is a list of `invdist verify` calls, as RunConfig fields.
# Every config stays under the caps in cli._plan: invariance orders
# min(lmax, 3), composites min(samples, 5), complex samples min(samples, 10)
# and closure samples min(samples, 25).
WORKLOADS = {
    "invariance": [dict(suite="invariance", n=8, lmax=3, samples=0)],
    "rank": [dict(suite="independence", n=3, lmax=8),
             dict(suite="support", n=4, lmax=6)],
    "census": [dict(suite="orbits", n=8, samples=1000),
               dict(suite="complex-orbits", n=8, samples=3),
               dict(suite="algebra", n=8, samples=25)],
}


def configs(workload: str, seed: int):
    return [cli.RunConfig(seed=seed, lam=None, fmt="json", **kw)
            for kw in WORKLOADS[workload]]


def expected_ids(config) -> list:
    """Check ids the oracle expects from one config, derived from the
    config alone."""
    n, lmax = config.n, config.lmax
    if config.suite == "invariance":
        return [f"invariance.T.n{n}.l{l}" for l in range(lmax + 1)]
    if config.suite == "independence":
        return [f"independence.T.n{n}.lmax{lmax}"]
    if config.suite == "support":
        return [f"support.n{n}.j{j}.lmax{lmax}" for j in range(2, n)]
    if config.suite == "orbits":
        return [f"orbits.census.n{n}"]
    if config.suite == "complex-orbits":
        return [f"complex-orbits.n{n}"]
    if config.suite == "algebra":
        return [f"algebra.closure.n{n}", f"algebra.det.n{n}"]
    raise ValueError(config.suite)


def oracle(config, text: str) -> tuple:
    """(attempted, wrong, problems) for one emitted JSON report.

    Every check's known answer is PASS; anything else is a wrong verdict.
    A PASS whose details contradict the known answer is a problem, as is a
    report that is missing a check or whose summary disagrees with it.
    """
    report = json.loads(text)
    checks = {c["id"]: c for c in report["checks"]}
    want = expected_ids(config)
    problems = []
    if sorted(checks) != sorted(want):
        problems.append(f"{config.suite}: checks {sorted(checks)} != {want}")
    wrong = sum(1 for cid in want
                if checks.get(cid, {}).get("status") != PASS)
    statuses = [c["status"] for c in report["checks"]]
    summary = {"pass": statuses.count("pass"),
               "fail": statuses.count("fail"),
               "skipped": statuses.count("skipped")}
    if report["summary"] != summary:
        problems.append(f"{config.suite}: summary {report['summary']}")
    for cid, check in checks.items():
        if check["status"] != PASS:
            continue
        details = check["details"]
        if config.suite in ("independence", "support") and \
                details.get("rank") != config.lmax + 1:
            problems.append(f"{cid}: rank {details.get('rank')} "
                            f"!= {config.lmax + 1}")
        if config.suite == "support":
            j = int(cid.split(".j")[1].split(".")[0])
            if set(details.get("supports", [])) != {f"X{j}"} or \
                    len(details["supports"]) != config.lmax + 1:
                problems.append(f"{cid}: supports {details.get('supports')}")
    return len(want), wrong, problems


def run_pass(cfgs, calibrate, before=None) -> dict:
    """One pass: each config through run_suite and emit_report, each call
    timed on its own and followed by ``calibrate()``, which returns the time
    of one calibration run.  ``before`` is the calibration time just before
    the pass, if there was one.  An exception inside run_suite fails every
    check of that suite, and the remaining suites still run."""
    reports, errors, calls, cals, ratios = [], [], [], [], []
    for config in cfgs:
        start = time.perf_counter()
        try:
            reports.append(cli.emit_report(cli.run_suite(config), "json"))
        except Exception as exc:  # the workload must keep running
            reports.append(None)
            errors.append(f"{config.suite}: {type(exc).__name__}: {exc}")
        calls.append(time.perf_counter() - start)
        cals.append(calibrate())
        # The machine's speed changes within seconds, so each call is
        # measured against the calibration runs on either side of it.
        around = [c for c in (before, cals[-1]) if c is not None]
        ratios.append(calls[-1] / statistics.mean(around))
        before = cals[-1]
    attempted = wrong = 0
    problems = []
    for config, text in zip(cfgs, reports):
        if text is None:
            attempted += len(expected_ids(config))
            wrong += len(expected_ids(config))
            continue
        a, w, p = oracle(config, text)
        attempted += a
        wrong += w
        problems.extend(p)
    return {"elapsed": sum(calls) + sum(cals), "calls": calls, "cals": cals,
            "ratios": ratios,
            "reports": reports, "attempted": attempted, "wrong": wrong,
            "problems": problems, "errors": errors}


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    cfgs = configs(workload, seed)
    for config in cfgs:
        config.validate()
    first_check = time.monotonic()
    if argv[2] == "--setup-only":
        print(json.dumps({"first_check": first_check}))
        return 0
    seconds, trace = float(argv[2]), argv[3] == "1"
    # Imported after the first check, so set-up time covers invdist alone.
    from calibrate import measure
    from spans import Tracer

    passes = [run_pass(cfgs, measure)]
    traced, counters, self_times = [], [], []
    while trace:
        # Alternate traced and untraced passes so both see the same machine.
        with Tracer() as tracer:
            traced.append(run_pass(cfgs, measure, passes[-1]["cals"][-1]))
        counters.append(dict(tracer.counts))
        self_times.append(tracer.self_times())
        if time.monotonic() - first_check + traced[-1]["elapsed"] \
                + passes[-1]["elapsed"] > seconds:
            break
        passes.append(run_pass(cfgs, measure, traced[-1]["cals"][-1]))
    while not trace and time.monotonic() - first_check + \
            statistics.median(p["elapsed"] for p in passes) <= seconds:
        passes.append(run_pass(cfgs, measure, passes[-1]["cals"][-1]))

    everything = passes + traced
    problems = [msg for p in everything for msg in p["problems"]]
    if any(p["reports"] != passes[0]["reports"] for p in everything):
        problems.append("emitted reports differ between passes of one seed")
    if any(c != counters[0] for c in counters):
        problems.append("work counters differ between traced passes")
    out = {
        "first_check": first_check,
        "walls": [p["calls"] for p in passes],
        "cals": [p["cals"] for p in passes],
        "ratios": [p["ratios"] for p in passes],
        # The checks of one seed, counted once: how many passes fit in the
        # run depends on the machine's speed, and every further pass must
        # emit the same reports as the first (checked above).
        "attempted": passes[0]["attempted"],
        "wrong": passes[0]["wrong"],
        "problems": problems,
        "errors": sorted({e for p in everything for e in p["errors"]}),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "statuses": {c["id"]: c["status"]
                     for text in passes[0]["reports"] if text
                     for c in json.loads(text)["checks"]},
    }
    if trace:
        names = sorted({k for st in self_times for k in st})
        out["traced_ratios"] = [p["ratios"] for p in traced]
        out["counts"] = counters[0]
        out["self_times"] = {k: statistics.median(st.get(k, 0.0)
                                                  for st in self_times)
                             for k in names}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
