"""Command-line verification driver.

Runs named check suites over the algebra, the conjugation identities, the
invariant families, and the orbit pictures, then emits a text or JSON
report.  Exit status is 0 exactly when every executed check passed, 1 when
some check failed, 2 on a usage error or an unwritable ``--out``, 3 when a
check raised an exception.  Every check is an exact certificate and draws
nothing at random, so a report depends on its configuration alone.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .clifford import h_closure_check, h_det_check
from .constructions import (FamilySpec, FamilyWork, check_lam,
                            verify_independence, verify_invariance,
                            verify_lemma_d, verify_support_filtration)
from .orbits import complex_orbit_check, enumerate_strata
from .records import FAIL, PASS, SKIPPED, CheckRecord
from .scalars import GaussianRational

__all__ = ["RunConfig", "Report", "run_suite", "emit_report", "main"]

SUITES = ("algebra", "lemma-d", "invariance", "independence", "support",
          "orbits", "complex-orbits", "all")

REPORT_SCHEMA_VERSION = 3

# Suites that build RunConfig.family and so run at its lam.
FAMILY_SUITES = ("invariance", "independence", "all")

FORMAT_ENV_VAR = "INVDIST_FORMAT"


class RunConfig:
    """Configuration for one verification run; ``lam`` None is the formal
    parameter."""

    __slots__ = ("suite", "n", "lmax", "lam", "seed", "samples", "fmt",
                 "out")

    def __init__(self, suite: str, n: int = 3, lmax: int = 4,
                 lam: Optional[Fraction] = None, seed: int = 0,
                 samples: int = 0, fmt: str = "text",
                 out: Optional[str] = None):
        self.suite, self.n, self.lmax, self.lam = suite, n, lmax, lam
        # inert: nothing reads them; invbench/workload.py still passes both
        self.seed, self.samples = seed, samples
        self.fmt, self.out = fmt, out

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        for flag, value in (("--n", self.n), ("--lmax", self.lmax)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{flag} must be an int, got {value!r}")
        if self.n < 2:
            raise ValueError("--n must be at least 2")
        if self.lmax < 0:
            raise ValueError("--lmax must be nonnegative")
        check_lam(self.lam, "--lambda")
        if self.suite in FAMILY_SUITES:
            self.family.validate()
        if self.fmt not in ("text", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")

    @property
    def family(self) -> FamilySpec:
        """The family of orders 0..lmax the invariance and independence
        suites check: T, or T2 at n = 2."""
        return FamilySpec(self.n, "T" if self.n >= 3 else "T2", self.lmax,
                          lam=self.lam)

    def to_dict(self) -> dict:
        # only the family suites read --lambda, at their family's lam; the
        # support filtration is at formal lam, and the others have no lam
        lam = self.family.row()[2] if self.suite in FAMILY_SUITES else None
        return {
            "suite": self.suite,
            "n": self.n,
            "lmax": self.lmax,
            "lambda": "formal" if lam is None else str(lam),
        }


class Report:
    __slots__ = ("config", "checks", "timings", "errored")

    def __init__(self, config: RunConfig, checks: List[CheckRecord],
                 timings: List[float], errored: bool = False):
        self.config, self.checks = config, checks
        self.timings = timings  # seconds, parallel to checks
        self.errored = errored  # a check raised, and its record says so

    def summary(self) -> dict:
        return {
            "pass": sum(1 for c in self.checks if c.status == PASS),
            "fail": sum(1 for c in self.checks if c.status == FAIL),
            "skipped": sum(1 for c in self.checks if c.status == SKIPPED),
        }

    def to_dict(self) -> dict:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary(),
        }

    @property
    def all_passed(self) -> bool:
        return self.summary()["fail"] == 0


# ---------------------------------------------------------------------------
# Suite plans
# ---------------------------------------------------------------------------

Planned = Tuple[str, Callable[[], CheckRecord]]


def _zeta_labels(count: int) -> List[GaussianRational]:
    """Deterministic distinct rational labels 0, 1, 1/2, 1/3, 2/3, ..."""
    labels = [GaussianRational()]
    q = 1
    while len(labels) < count:
        q += 1
        for p in range(1, q):
            if math.gcd(p, q) == 1:  # p/q in lowest terms
                labels.append(GaussianRational.from_triple(p, 0, q))
                if len(labels) == count:
                    break
    return labels


def _plan(config: RunConfig) -> List[Planned]:
    n, lmax = config.n, config.lmax
    plan: List[Planned] = []
    want = lambda s: config.suite in (s, "all")
    family = config.family
    # one FamilyWork per chain of this run (T and Tj(j=n-1) at one lam are
    # one chain), filled in by the first check that reads each part
    works: Dict[tuple, FamilyWork] = {}
    work = lambda spec: works.setdefault((spec.n, spec.row()),
                                         FamilyWork(spec))

    if want("algebra"):
        plan.append((f"algebra.det.n{n}", lambda: h_det_check(n)))
        plan.append((f"algebra.closure.n{n}", lambda: h_closure_check(n)))
    if want("lemma-d"):
        which = "D" if n >= 3 else "Dprime"
        plan.append((f"lemma-d.{which}.n{n}", lambda: verify_lemma_d(n)))
    if want("invariance"):
        for l in range(lmax + 1):
            plan.append((f"invariance.{family.family}.n{n}.l{l}",
                         lambda l=l, w=work(family): verify_invariance(
                             FamilySpec(n, family.family, l, lam=family.lam),
                             work=w)))
    if want("independence"):
        plan.append((f"independence.{family.family}.n{n}.lmax{lmax}",
                     lambda w=work(family): verify_independence(family,
                                                                work=w)))
    if want("support"):
        if n >= 3:
            for j in range(2, n):
                plan.append((f"support.n{n}.j{j}.lmax{lmax}",
                             lambda j=j, w=work(FamilySpec(n, "Tj", lmax, j)):
                             verify_support_filtration(n, j, lmax, work=w)))
        else:
            plan.append(("support.n2",
                         lambda: CheckRecord(
                             check_id="support.n2",
                             statement="support filtration needs n >= 3",
                             paper_ref="Proposition 4.8",
                             status=SKIPPED,
                             details={"reason": "not applicable at n = 2"})))
    if want("orbits"):
        plan.append((f"orbits.census.n{n}", lambda: enumerate_strata(n)))
    if want("complex-orbits"):
        labels = _zeta_labels(100)
        plan.append((f"complex-orbits.n{n}",
                     lambda: complex_orbit_check(n, labels)))
    return plan


def run_suite(config: RunConfig) -> Report:
    """Execute the selected suite.  After the first failing check the
    remaining planned checks are recorded as skipped, not executed.  A check
    that raises is a failing record whose ``details`` name the exception,
    its traceback goes to stderr, and the report is marked ``errored``."""
    config.validate()
    checks: List[CheckRecord] = []
    timings: List[float] = []
    failed = errored = False
    for check_id, thunk in _plan(config):
        if failed:
            checks.append(CheckRecord(
                check_id=check_id,
                statement="not executed after earlier failure",
                paper_ref="n/a",
                status=SKIPPED,
                details={}))
            timings.append(0.0)
            continue
        start = time.monotonic()
        try:
            record = thunk()
        except Exception as exc:
            import traceback  # imported only here, off every passing run
            traceback.print_exc()
            errored = True
            record = CheckRecord(
                check_id=check_id,
                statement="the check raised an exception",
                paper_ref="n/a",
                status=FAIL,
                details={"error": f"{type(exc).__name__}: {exc}"})
        timings.append(time.monotonic() - start)
        checks.append(record)
        if record.status == FAIL:
            failed = True
    order = sorted(range(len(checks)), key=lambda i: checks[i].check_id)
    return Report(config,
                  [checks[i] for i in order],
                  [timings[i] for i in order], errored)


def emit_report(report: Report, fmt: str) -> str:
    """Serialize.  JSON output is byte-stable for a fixed config;
    wall times therefore appear only in the text format."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    lines = [f"verification report (schema v{REPORT_SCHEMA_VERSION}, "
             f"tool {__version__})"]
    cfg = report.config.to_dict()
    lines.append("config: " + ", ".join(f"{k}={v}" for k, v in cfg.items()))
    for check, dt in zip(report.checks, report.timings):
        lines.append(f"[{check.status.upper():7s}] {check.check_id:40s} "
                     f"({check.paper_ref}) {check.statement} [{dt:.3f}s]")
    s = report.summary()
    lines.append(f"summary: {s['pass']} passed, {s['fail']} failed, "
                 f"{s['skipped']} skipped")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _parse_lambda(text: str) -> Optional[Fraction]:
    if text == "formal":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        import argparse  # loaded already: only its parser calls this
        raise argparse.ArgumentTypeError(
            f"expected 'formal' or a rational p/q, got {text!r}")


def build_parser() -> "argparse.ArgumentParser":
    # imported here, as traceback in run_suite: a caller of run_suite
    # alone never parses a command line
    import argparse
    parser = argparse.ArgumentParser(
        prog="invdist",
        description="verify the invariant-distribution computations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--n", type=int, default=3,
                        help="complex dimension (default 3)")
    verify.add_argument("--lmax", type=int, default=4,
                        help="maximal family order (default 4)")
    verify.add_argument("--lambda", dest="lam", type=_parse_lambda,
                        default=None, metavar="p/q|formal",
                        help="spectral parameter (default formal)")
    verify.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default=None,
                        help=f"output format (default text, or "
                             f"${FORMAT_ENV_VAR})")
    verify.add_argument("--out", default=None, metavar="path",
                        help="write the report to a file instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    fmt = args.fmt or os.environ.get(FORMAT_ENV_VAR, "text")
    config = RunConfig(suite=args.suite, n=args.n, lmax=args.lmax,
                       lam=args.lam, fmt=fmt, out=args.out)
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # open --out before the run, so that an unwritable path fails fast
    try:
        out = open(config.out, "w") if config.out else None
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    report = run_suite(config)
    text = emit_report(report, config.fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with out:
                out.write(text)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    return 3 if report.errored else 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
