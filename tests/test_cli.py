"""The verification command line: reports, formats, determinism, exit
codes."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import invdist
from invdist import cli
from invdist.cli import Report, RunConfig, emit_report, main, run_suite
from invdist.records import FAIL, PASS, SKIPPED, CheckRecord

# the source tree the tests import, so the CLI subprocess runs the same code
SRC = os.path.dirname(os.path.dirname(os.path.abspath(invdist.__file__)))


def run_cli(*args, env=None, module="invdist.cli"):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, full_env.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    command = [sys.executable] + (["-m", module] if module else [])
    return subprocess.run(command + list(args),
                          capture_output=True, text=True, env=full_env)


class TestRunSuite:
    def test_lemma_suite_passes(self):
        report = run_suite(RunConfig(suite="lemma-d", n=3))
        assert report.all_passed
        assert report.summary() == {"pass": 1, "fail": 0, "skipped": 0}

    def test_checks_sorted_by_id(self):
        report = run_suite(RunConfig(suite="all", n=2))
        ids = [c.check_id for c in report.checks]
        assert ids == sorted(ids)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_planned_ids_are_the_record_ids(self, suite, n):
        # each id is written twice: in the plan, which names a skipped
        # record, and in the check, which names an executed one
        config = RunConfig(suite=suite, n=n, lmax=2)
        report = run_suite(config)
        assert report.all_passed
        assert sorted(c.check_id for c in report.checks) \
            == sorted(check_id for check_id, _ in cli._plan(config))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RunConfig(suite="algebra", n=1).validate()
        with pytest.raises(ValueError):
            RunConfig(suite="nope").validate()
        with pytest.raises(ValueError):
            RunConfig(suite="algebra", lmax=-1).validate()

    @pytest.mark.parametrize("suite", ["invariance", "orbits"])
    def test_bool_lambda_is_refused(self, suite):
        # a bool is an int to Python: it would run at lam = 1 and print
        # "True" as the lambda
        with pytest.raises(ValueError, match="--lambda"):
            RunConfig(suite=suite, n=3, lmax=1, lam=True).validate()

    @pytest.mark.parametrize("field, value", [
        ("n", True), ("n", 3.0), ("n", "3"), ("n", Fraction(3)),
        ("lmax", True), ("lmax", False), ("lmax", 1.0), ("lmax", None)])
    def test_non_int_n_or_lmax_is_refused(self, field, value):
        config = RunConfig(suite="algebra", **{field: value})
        with pytest.raises(ValueError, match=f"--{field} must be an int"):
            config.validate()

    def test_int_lambda_reports_as_its_fraction(self):
        as_int, as_fraction = (
            emit_report(run_suite(RunConfig(suite="all", n=3, lmax=2,
                                            lam=lam, fmt="json")), "json")
            for lam in (3, Fraction(3)))
        assert as_int == as_fraction

    @pytest.mark.parametrize("suite", ["independence", "orbits"])
    def test_float_lambda_fails_before_any_check(self, monkeypatch, suite):
        # a float would run at its binary fraction and print as the float
        config = RunConfig(suite=suite, n=3, lmax=2, lam=0.5)
        with pytest.raises(ValueError):
            config.validate()

        def plan(_):
            raise AssertionError("planned a run that fails validation")

        monkeypatch.setattr(cli, "_plan", plan)
        with pytest.raises(ValueError):
            run_suite(config)

    def test_all_suite_main_theorem(self):
        # invariance of T^0..T^2 and rank 3, formal lam for n = 3 and the
        # lam = 2 branch for n = 2 (where support does not apply)
        for n in (2, 3):
            fam = "T" if n >= 3 else "T2"
            report = run_suite(RunConfig(suite="all", n=n, lmax=2))
            ids = {c.check_id for c in report.checks}
            assert {f"invariance.{fam}.n{n}.l{l}" for l in range(3)} <= ids
            assert f"independence.{fam}.n{n}.lmax2" in ids
            assert all(c.status == PASS for c in report.checks
                       if c.check_id != "support.n2")

    @pytest.mark.parametrize("suite", ["algebra", "orbits"])
    def test_suite_passes_at_n16(self, suite):
        report = run_suite(RunConfig(suite=suite, n=16))
        assert report.checks
        assert all(c.status == PASS for c in report.checks)

    def test_orbits_passes_at_n32(self):
        report = run_suite(RunConfig(suite="orbits", n=32))
        assert report.checks
        assert all(c.status == PASS for c in report.checks)

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_inert_seed_and_samples_change_no_report_byte(self, suite):
        # RunConfig still accepts both fields, and nothing reads them
        reports = {emit_report(run_suite(RunConfig(
            suite=suite, n=3, lmax=2, seed=seed, samples=samples)), "json")
            for seed in (0, 5) for samples in (0, 7, -1)}
        assert len(reports) == 1

    @pytest.mark.parametrize("suite", cli.SUITES)
    def test_config_names_only_what_the_run_reads(self, suite):
        config = RunConfig(suite=suite, n=3, lmax=2).to_dict()
        assert set(config) == {"suite", "n", "lmax", "lambda"}


class TestEmitReport:
    def _dummy_report(self, status=PASS):
        rec = CheckRecord(check_id="x.check", statement="a statement",
                          paper_ref="Lemma 4.2", status=status,
                          details={"k": 1})
        return Report(RunConfig(suite="algebra"), [rec], [0.5])

    def test_json_schema_fields(self):
        out = json.loads(emit_report(self._dummy_report(), "json"))
        assert set(out) == {"version", "config", "checks", "summary"}
        assert out["version"] == 3
        check = out["checks"][0]
        assert set(check) == {"id", "statement", "paper_ref", "status",
                              "details"}
        assert out["summary"] == {"pass": 1, "fail": 0, "skipped": 0}

    def test_json_round_trip(self):
        report = self._dummy_report()
        parsed = json.loads(emit_report(report, "json"))
        assert parsed == report.to_dict()
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" \
            == emit_report(report, "json")

    def test_text_has_one_line_per_check_with_ref(self):
        text = emit_report(self._dummy_report(), "text")
        lines = [l for l in text.splitlines() if "x.check" in l]
        assert len(lines) == 1
        assert "Lemma 4.2" in lines[0]

    def test_empty_report(self):
        report = Report(RunConfig(suite="algebra"), [], [])
        assert report.all_passed
        out = json.loads(emit_report(report, "json"))
        assert out["summary"] == {"pass": 0, "fail": 0, "skipped": 0}

    def test_failing_report_not_all_passed(self):
        assert not self._dummy_report(FAIL).all_passed
        assert self._dummy_report(SKIPPED).all_passed


class TestMain:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["verify", "lemma-d", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "summary:" in out

    def test_json_to_file(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(["verify", "lemma-d", "--n", "3", "--format", "json",
                     "--out", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["summary"]["fail"] == 0

    def test_unwritable_out_exits_two(self, tmp_path, capsys, monkeypatch):
        # exit 1 means a failed check; a report that cannot be written is
        # an error of the invocation, found before any check runs
        runs = []
        monkeypatch.setattr(cli, "run_suite",
                            lambda config: runs.append(config))
        target = tmp_path / "missing" / "report.json"
        code = main(["verify", "all", "--n", "3", "--out", str(target)])
        assert code == 2
        assert runs == []
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write the report:")
        assert captured.out == ""
        assert not target.exists()

    def test_exit_one_on_failure(self, monkeypatch, capsys):
        import invdist.cli as cli
        bad = CheckRecord(check_id="bad", statement="forced failure",
                          paper_ref="n/a", status=FAIL, details={})
        monkeypatch.setattr(cli, "_plan",
                            lambda config: [("bad", lambda: bad)])
        assert main(["verify", "algebra"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_later_checks_skipped_after_failure(self, monkeypatch):
        import invdist.cli as cli
        bad = CheckRecord(check_id="a.bad", statement="forced failure",
                          paper_ref="n/a", status=FAIL, details={})
        good = CheckRecord(check_id="b.good", statement="never runs",
                           paper_ref="n/a", status=PASS, details={})
        monkeypatch.setattr(cli, "_plan", lambda config: [
            ("a.bad", lambda: bad), ("b.good", lambda: good)])
        report = run_suite(RunConfig(suite="algebra"))
        assert [c.status for c in report.checks] == [FAIL, SKIPPED]

    def test_exception_in_a_check_is_a_failing_record(self, monkeypatch,
                                                      capsys):
        # the check that raises fails with the exception as its details,
        # later checks are skipped, the summary keeps its three keys, and
        # the run exits 3
        def raises():
            raise ZeroDivisionError("boom")

        def never():
            raise AssertionError("ran a check after an error")

        monkeypatch.setattr(cli, "_plan", lambda config: [
            ("a.raises", raises), ("b.later", never)])
        report = run_suite(RunConfig(suite="algebra"))
        assert report.errored and not report.all_passed
        assert [(c.check_id, c.status) for c in report.checks] \
            == [("a.raises", FAIL), ("b.later", SKIPPED)]
        assert report.checks[0].details == {
            "error": "ZeroDivisionError: boom"}
        assert "Traceback" in capsys.readouterr().err
        assert main(["verify", "algebra", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.err.rstrip().endswith("ZeroDivisionError: boom")
        data = json.loads(captured.out)
        assert data["summary"] == {"pass": 0, "fail": 1, "skipped": 1}
        assert data["checks"][0]["details"] == {
            "error": "ZeroDivisionError: boom"}

    def test_python_m_invdist_prints_the_golden_report(self):
        res = run_cli("verify", "independence", "--n", "3", "--lmax", "4",
                      "--format", "json", module="invdist")
        assert res.returncode == 0
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "golden", "independence_n3_lmax4.json")
        with open(golden) as f:
            assert res.stdout == f.read()

    def test_run_suite_loads_no_parser_and_main_still_parses(self):
        # a fresh process, as the CLI and the benchmark start one: run_suite
        # loads neither dataclasses (nor inspect, which dataclasses
        # imports) nor argparse, which only main's parser needs; main then
        # still parses a command line and reports a bad --lambda, raised in
        # _parse_lambda, as a usage error
        script = textwrap.dedent("""
            import sys
            from invdist import cli
            cli.run_suite(cli.RunConfig(suite="all", n=3, lmax=2,
                                        fmt="json"))
            loaded = [m for m in ("dataclasses", "inspect", "argparse")
                      if m in sys.modules]
            import contextlib, io, json
            with contextlib.redirect_stdout(io.StringIO()) as out:
                ok = cli.main(["verify", "lemma-d", "--n", "3",
                               "--format", "json"])
            with contextlib.redirect_stderr(io.StringIO()) as err:
                bad = cli.main(["verify", "all", "--lambda", "x/y"])
            print(json.dumps({"loaded": loaded, "ok": ok, "bad": bad,
                              "summary": json.loads(out.getvalue())["summary"],
                              "err": err.getvalue()}))
        """)
        res = run_cli("-c", script, module=None)
        assert res.returncode == 0, res.stderr
        got = json.loads(res.stdout)
        assert got["loaded"] == []
        assert (got["ok"], got["summary"]) == \
            (0, {"pass": 1, "fail": 0, "skipped": 0})
        assert got["bad"] == 2
        assert got["err"].startswith("usage: invdist verify")
        assert "argument --lambda: expected 'formal' or a rational p/q, " \
            "got 'x/y'" in got["err"]

    def test_usage_error_exit_two(self):
        res = run_cli("verify", "not-a-suite")
        assert res.returncode == 2
        res = run_cli("verify", "algebra", "--n", "1")
        assert res.returncode == 2
        res = run_cli("verify", "algebra", "--lambda", "x/y")
        assert res.returncode == 2

    @pytest.mark.parametrize("suite", ["invariance", "independence", "all"])
    def test_n2_lambda_other_than_two_is_usage_error(self, suite):
        # T2 exists only at lam = 2; the run must not report another value
        res = run_cli("verify", suite, "--n", "2", "--lambda", "5")
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert res.stdout == ""

    @pytest.mark.parametrize("flag", [("--samples", "3"), ("--seed", "1"),
                                      ("--samples", "0")])
    def test_sampling_flags_are_usage_errors(self, flag):
        # no check draws, so the command line has no knob for draws
        res = run_cli("verify", "algebra", "--n", "3", *flag)
        assert res.returncode == 2
        assert res.stdout == ""

    def test_algebra_certifies_closure_by_the_four_parity_lemma(self):
        res = run_cli("verify", "algebra", "--n", "3", "--format", "json")
        assert res.returncode == 0
        checks = {c["id"]: c for c in json.loads(res.stdout)["checks"]}
        closure = checks["algebra.closure.n3"]
        assert closure["status"] == PASS
        assert closure["details"] == {"certificate": "four-parity lemma"}
        assert checks["algebra.det.n3"]["status"] == PASS

    def test_n2_lambda_ignored_by_suites_without_families(self):
        RunConfig(suite="orbits", n=2, lam=Fraction(5)).validate()
        RunConfig(suite="invariance", n=2, lam=Fraction(2)).validate()

    def test_invariance_covers_every_order_up_to_lmax(self):
        res = run_cli("verify", "invariance", "--n", "3", "--lmax", "5",
                      "--format", "json")
        assert res.returncode == 0
        checks = json.loads(res.stdout)["checks"]
        assert [c["id"] for c in checks] == [
            f"invariance.T.n3.l{l}" for l in range(6)]
        assert all(c["status"] == PASS for c in checks)

    def test_n2_reports_the_lambda_it_runs(self):
        # T2 runs at lam = 2 even with the default --lambda formal; suites
        # without families run and report formal lam
        for suite, want in (("invariance", "2"), ("independence", "2"),
                            ("all", "2"), ("lemma-d", "formal")):
            res = run_cli("verify", suite, "--n", "2", "--lmax", "1",
                          "--format", "json")
            assert res.returncode == 0
            assert json.loads(res.stdout)["config"]["lambda"] == want

    @pytest.mark.parametrize("suite", ["support", "algebra", "lemma-d",
                                       "orbits", "complex-orbits"])
    def test_support_runs_at_formal_lambda(self, suite):
        # the support filtration is a statement for generic lam, and the
        # other suites without families never read lam: --lambda changes
        # neither the checks nor the reported config
        args = ["verify", suite, "--n", "3", "--lmax", "2", "--format",
                "json"]
        formal, given = run_cli(*args), run_cli(*args, "--lambda", "4")
        assert formal.returncode == given.returncode == 0
        assert formal.stdout == given.stdout
        data = json.loads(formal.stdout)
        assert data["config"]["lambda"] == "formal"
        if suite == "support":
            assert all(c["details"]["lambda"] == "formal"
                       for c in data["checks"])

    def test_help_documents_defaults(self):
        res = run_cli("verify", "--help")
        assert res.returncode == 0
        for phrase in ("default 3", "default 4", "formal"):
            assert phrase in res.stdout

    def test_env_var_sets_format_but_flag_wins(self):
        res = run_cli("verify", "lemma-d", "--n", "3",
                      env={"INVDIST_FORMAT": "json"})
        assert res.stdout.lstrip().startswith("{")
        res = run_cli("verify", "lemma-d", "--n", "3", "--format", "text",
                      env={"INVDIST_FORMAT": "json"})
        assert res.stdout.startswith("verification report")

    def test_json_byte_stable(self):
        args = ["verify", "orbits", "--n", "3", "--format", "json"]
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == 0

    def test_spec_rank_example(self):
        # independence at n=2, lmax=5, lambda=2 reports rank 6
        res = run_cli("verify", "independence", "--n", "2", "--lmax", "5",
                      "--lambda", "2", "--format", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["checks"][0]["details"]["rank"] == 6
