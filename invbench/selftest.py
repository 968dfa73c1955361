"""Self-test of the benchmark, run from the root of a checkout:

    python3 invbench/selftest.py [--seed N]

It checks that
- the tracer replaces every binding of a traced function, including those
  imported by name into other modules, and restores them all;
- on one seed, each workload's traced pass emits the same reports as an
  untraced pass, and its work counters repeat exactly on a second traced
  pass;
- the bypass predictions in ``notes.json`` hold: a prediction's metrics are
  0 on its ``zero_on`` workloads, and its call counters are above 0 on its
  ``on`` workloads;
- the oracle flags a wrong rank and counts an exception inside ``run_suite``
  as a failed check without stopping the remaining suites.

Exit status 0 means every check held; each failure is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workload
from calibrate import measure
from run import layer_metrics
from spans import COUNTS, SPANS, Tracer, _resolve

HERE = os.path.dirname(os.path.abspath(__file__))

# Modules whose own namespace binds the function, by span name.
REQUIRED_BINDINGS = {
    "weyl.conjugate_op": {"invdist.weyl", "invdist.distributions",
                          "invdist.constructions"},
    "scalars.rank": {"invdist.scalars", "invdist.distributions"},
    "clifford.group_inverse": {"invdist.clifford", "invdist.weyl"},
    "weyl.substitution": {"invdist.weyl", "invdist.constructions"},
    "distributions.independence_rank": {"invdist.distributions",
                                        "invdist.constructions"},
}


def check_bindings(failures: list) -> None:
    originals = {(m, a): _resolve(m, a)[1]
                 for targets in SPANS.values() for m, a in targets}
    originals.update({t: _resolve(*t)[1] for t in COUNTS.values()})
    with Tracer() as tracer:
        for span, modules in REQUIRED_BINDINGS.items():
            missing = modules - set(tracer.bound[span])
            if missing:
                failures.append(f"{span} not wrapped in {sorted(missing)}")
        if tracer.bound["scalars.scalar_mul"].count("Scalar") != 2:
            failures.append("Scalar.__mul__ and __rmul__ not both wrapped")
    for (module, attr), orig in originals.items():
        if _resolve(module, attr)[1] is not orig:
            failures.append(f"{module}.{attr} not restored")
    for mod_name, mod in sys.modules.items():
        if mod_name.startswith("invdist"):
            for key, value in vars(mod).items():
                if getattr(value, "__wrapped__", None) is not None:
                    failures.append(f"{mod_name}.{key} still wrapped")


def check_workload(name: str, seed: int, predictions: list,
                   failures: list) -> None:
    cfgs = workload.configs(name, seed)
    plain = workload.run_pass(cfgs, measure)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            traced = workload.run_pass(cfgs, measure)
        counts.append(dict(tracer.counts))
        if traced["reports"] != plain["reports"]:
            failures.append(f"{name}: traced reports differ from untraced")
    if counts[0] != counts[1]:
        failures.append(f"{name}: work counters differ between traced passes")
    metrics = layer_metrics({"counts": counts[0],
                             "self_times": tracer.self_times(),
                             "ratios": [plain["ratios"]],
                             "traced_ratios": [traced["ratios"]]})
    for pred in predictions:
        for metric in pred["metrics"]:
            value = metrics[metric][0]
            if name in pred["zero_on"] and value != 0:
                failures.append(f"{name}: {metric} = {value}, predicted 0")
            if name in pred["on"] and metric.endswith(".calls") \
                    and value <= 0:
                failures.append(f"{name}: {metric} = {value}, predicted > 0")
    print(f"{name}: {plain['attempted']} checks, {plain['wrong']} not PASS, "
          f"untraced {sum(plain['calls']):.3f} s, "
          f"traced {sum(traced['calls']):.3f} s")


def check_oracle(failures: list) -> None:
    config = workload.configs("rank", 0)[0]
    report = {"version": 1, "config": {}, "summary":
              {"pass": 1, "fail": 0, "skipped": 0},
              "checks": [{"id": workload.expected_ids(config)[0],
                          "status": "pass", "details": {"rank": 3}}]}
    attempted, wrong, problems = workload.oracle(config, json.dumps(report))
    if (attempted, wrong) != (1, 0) or not problems:
        failures.append("oracle accepted a PASS with the wrong rank")

    real = workload.cli.run_suite

    def flaky(config):
        if config.suite == "complex-orbits":
            raise RuntimeError("injected")
        return real(config)

    workload.cli.run_suite = flaky
    try:
        cfgs = workload.configs("census", 0)
        cfgs = [c for c in cfgs if c.suite != "orbits"]
        result = workload.run_pass(cfgs, measure)
    finally:
        workload.cli.run_suite = real
    if result["wrong"] != 1 or result["attempted"] != 3 \
            or result["reports"][1] is None or len(result["errors"]) != 1:
        failures.append(f"exception inside run_suite not counted: {result}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(HERE, "notes.json")) as fh:
        predictions = json.load(fh)["predictions"]
    failures: list = []
    check_bindings(failures)
    check_oracle(failures)
    for name in workload.WORKLOADS:
        check_workload(name, args.seed, predictions, failures)
    for line in failures:
        print(f"FAILED: {line}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
