"""Command-line surface: argument parsing, output formats, exit codes."""

import csv
import io
import json
from contextlib import redirect_stdout

import pytest

from xiverify import cli, identities
from xiverify.cli import (build_parser, default_grid, load_grid_file, main,
                          parse_z, report_to_dict, render_json)
from xiverify.identities import verify_theta
from xiverify.specfun import mobius_sieve
from xiverify.xikernel import KernelParams


class TestParseZ:
    @pytest.mark.parametrize("text,want", [
        ("0", 0.0 + 0.0j),
        ("2", 2.0 + 0.0j),
        ("2i", 2.0j),
        ("-1.5i", -1.5j),
        ("1+0.5i", 1.0 + 0.5j),
        ("1-0.5i", 1.0 - 0.5j),
        ("1e-3", 1e-3 + 0.0j),
    ])
    def test_accepted_forms(self, text, want):
        assert parse_z(text) == want

    @pytest.mark.parametrize("text", ["", "abc", "1++2i", "1e400", "nan"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_z(text)


class TestGridFile:
    def test_parses_rows_and_comments(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("# comment line\n"
                     "1.0 0.0 0.0\n"
                     "\n"
                     "2.0 1.0 0.5\n")
        grid = load_grid_file(str(p))
        assert grid == [(1.0, 0.0 + 0.0j), (2.0, 1.0 + 0.5j)]

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        for bad in ("1.0 oops 0.0", "nan 0 0", "1 nan 0", "1 0 -inf"):
            p.write_text("1.0 0.0 0.0\n%s\n" % bad)
            with pytest.raises(ValueError, match="bad.txt:2"):
                load_grid_file(str(p))

    def test_rejects_nonpositive_alpha(self, tmp_path):
        p = tmp_path / "neg.txt"
        p.write_text("-1.0 0.0 0.0\n")
        with pytest.raises(ValueError, match="positive"):
            load_grid_file(str(p))

    def test_rejects_empty(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no points"):
            load_grid_file(str(p))

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 20
        assert (1.0, 0.0 + 0.0j) in grid


def test_report_to_dict_round_trips_complex():
    rep = verify_theta(KernelParams(2.0, 1.0), 1e-8)
    d = report_to_dict(rep)
    assert d["identity"] == "theta"
    assert d["alpha"] == 2.0
    assert d["z"] == [1.0, 0.0]
    assert d["pass"] is True
    side = d["sides"]["alpha_series"]
    assert isinstance(side, list) and len(side) == 2
    # survives JSON
    json.loads(json.dumps(d))


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestMain:
    def test_single_point_json(self):
        code, out = run_cli(["--identity", "theta", "--alpha", "2",
                             "--z", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert len(doc["reports"]) == 1
        assert doc["reports"][0]["identity"] == "theta"

    def test_aux_battery(self, monkeypatch):
        code, out = run_cli(["--identity", "aux"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 14
        # the aux reports take the run's tol, from --tol or XI_VERIFY_TOL,
        # like every other family
        assert {r["tolerance"] for r in doc["reports"]} == {1e-8}
        for argv, env in ((["--tol", "1e-6"], None), ([], "1e-7")):
            if env:
                monkeypatch.setenv("XI_VERIFY_TOL", env)
            code, out = run_cli(["--identity", "aux"] + argv)
            assert code == 0
            assert {r["tolerance"] for r in json.loads(out)["reports"]} == {
                float(env or argv[1])}

    def test_csv_format(self):
        code, out = run_cli(["--identity", "digamma", "--alpha", "1.5",
                             "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["identity", "alpha", "z", "pair", "residual",
                           "tolerance", "pass"]
        assert len(rows) == 4  # three pairwise residuals for three sides
        assert rows[1][0] == "digamma"
        assert rows[1][6] == "pass"

    def test_out_file_and_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["--identity", "theta", "--alpha", "1.25", "--z", "0.5i"]
        code, _ = run_cli(argv + ["--out", str(a)])
        assert code == 0
        code, _ = run_cli(argv + ["--out", str(b)])
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_match_serial(self, tmp_path):
        a = tmp_path / "serial.json"
        b = tmp_path / "parallel.json"
        argv = ["--identity", "digamma"]
        run_cli(argv + ["--out", str(a)])
        run_cli(argv + ["--jobs", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tasks_do_not_carry_the_zeros(self, zero_records):
        extra = {"mobius_limit": 10000, "zeros": zero_records}
        tasks = cli.build_tasks("all", default_grid(), 1e-8, extra)
        assert any(t[0] == "rhl" for t in tasks)
        for task in tasks:
            assert len(task) == 4
            assert not any(field is extra for field in task)

    def test_rhl_jobs_match_serial(self, tmp_path, sample_zeros_path):
        # --jobs workers get the zeros from the pool's initializer
        grid = tmp_path / "grid.txt"
        grid.write_text("2.0 1.0 0.0\n0.5 0.0 2.0\n")
        argv = ["--identity", "rhl", "--zeros", sample_zeros_path,
                "--grid", f"file:{grid}"]
        a = tmp_path / "serial.json"
        b = tmp_path / "parallel.json"
        assert run_cli(argv + ["--out", str(a)])[0] == 0
        assert run_cli(argv + ["--jobs", "2", "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(json.loads(a.read_text())["reports"]) == 2

    def test_grid_file_mode(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("1.0 0.0 0.0\n2.0 0.0 0.0\n")
        code, out = run_cli(["--identity", "theta", "--grid",
                             f"file:{p}"])
        assert code == 0
        doc = json.loads(out)
        assert [r["alpha"] for r in doc["reports"]] == [1.0, 2.0]

    def test_failure_exit_code(self, sample_zeros_path):
        # ten Moebius terms leave a residual of 5e-4: a reported failure
        code, out = run_cli(["--identity", "rhl", "--zeros",
                             sample_zeros_path, "--alpha", "2", "--z", "0",
                             "--mobius-limit", "10"])
        assert code == 1
        doc = json.loads(out)
        assert doc["all_pass"] is False

    def test_infinite_moebius_tail_bound_is_a_failing_report(
            self, sample_zeros_path):
        code, out = run_cli(["--identity", "rhl", "--zeros",
                             sample_zeros_path, "--alpha", "1e6"])
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert report["pass"] is False
        assert "tail bound" in report["diagnostics"]["error"]

    def test_unreachable_tol_reports_not_raises(self):
        code, out = run_cli(["--identity", "theta", "--alpha", "2",
                             "--z", "0", "--tol", "1e-16"])
        assert code == 1
        doc = json.loads(out)
        assert doc["reports"][0]["pass"] is False
        assert "error" in doc["reports"][0]["diagnostics"]

    def test_out_of_range_argument_reports_not_raises(self):
        # z^2/4 = 225 lies past hyp1f1's working range |z| <= 50
        code, out = run_cli(["--identity", "lineint", "--alpha", "1",
                             "--z", "30"])
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert report["pass"] is False
        assert "working range" in report["diagnostics"]["error"]

    def test_hyp1f1_range_is_a_failing_report(self):
        code, out = run_cli(["--identity", "theta", "--alpha", "1",
                             "--z", "15"])
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert report["pass"] is False
        assert report["sides"] == {}
        assert "|z| <= 50" in report["diagnostics"]["error"]

    @pytest.mark.parametrize("argv,name", [
        (["--identity", "digamma", "--alpha", "1e-9"], "lambda_sum"),
        (["--identity", "theta", "--alpha", "1e-12"], "theta_sum"),
    ])
    def test_series_term_ceiling_is_a_failing_report(self, argv, name):
        # each used to end in numpy's MemoryError, asking for 373 GiB and
        # 25.7 TiB
        code, out = run_cli(argv)
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert report["pass"] is False
        assert report["diagnostics"]["error"].startswith(name + ": ")

    def test_floating_point_error_is_a_failing_report(self):
        # z = 40i puts cos(sqrt(pi) alpha n z) = cosh(70.9 n) into the
        # alpha series, which overflows from n = 11; left as a warning, it
        # would make a NaN side
        extra = {"mobius_limit": 10000, "zeros": None}
        report, = cli._run_task(("theta", 1.0, 40j, 1e-8), extra)
        assert report["pass"] is False
        assert report["sides"] == {}
        assert report["diagnostics"]["error"].startswith(
            "floating-point error: overflow")

    def test_rhl_cold_and_warm_sieve_same_bytes(self, sample_zeros_path,
                                                 tmp_path):
        argv = ["--identity", "rhl", "--zeros", sample_zeros_path,
                "--alpha", "2", "--z", "1"]
        mobius_sieve.cache_clear()
        outs = []
        for name in ("cold.json", "warm.json"):
            path = tmp_path / name
            code, _ = run_cli(argv + ["--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert mobius_sieve.cache_info().hits >= 1
        assert outs[0] == outs[1]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["--identity", "theta", "--z", "1"],            # z without alpha
        ["--identity", "theta", "--alpha", "-2"],
        ["--identity", "theta", "--alpha", "2", "--z", "oops"],
        ["--identity", "rhl"],                          # needs --zeros
        ["--identity", "theta", "--tol", "-1"],
        ["--identity", "theta", "--jobs", "0"],
        ["--identity", "theta", "--grid", "file:/nonexistent/path.txt"],
        ["--identity", "nope"],
        ["--identity", "theta", "--alpha", "nan"],
        ["--identity", "theta", "--alpha", "inf"],
        ["--identity", "theta", "--tol", "nan"],
        ["--identity", "theta", "--tol", "inf"],
        ["--identity", "theta", "--rhl-tol", "1e-3"],   # flag removed
        ["--identity", "theta", "--grid", "bogus"],
    ])
    def test_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_empty_zeros_file(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["--identity", "rhl", "--zeros", str(p), "--alpha", "1"])
        assert exc.value.code == 2
        assert "no ordinates" in capsys.readouterr().err

    def test_mobius_limit_range(self, sample_zeros_path, monkeypatch):
        # rejected before the zeros are prepared or any sieve is built
        def refuse(*args, **kwargs):
            raise AssertionError("range check came too late")

        monkeypatch.setattr(cli, "prepare_zeros", refuse)
        monkeypatch.setattr(cli, "_run_task", refuse)
        for limit in (0, -5, 10 ** 12):
            with pytest.raises(SystemExit) as exc:
                main(["--identity", "rhl", "--zeros", sample_zeros_path,
                      "--mobius-limit", str(limit)])
            assert exc.value.code == 2


def test_tol_env_default(monkeypatch):
    argv = ["--identity", "theta", "--alpha", "2", "--z", "0"]

    def reported_tol(extra=()):
        code, out = run_cli(argv + list(extra))
        assert code == 0
        return json.loads(out)["reports"][0]["tolerance"]

    monkeypatch.setenv("XI_VERIFY_TOL", "1e-6")
    assert reported_tol() == 1e-6
    assert reported_tol(["--tol", "1e-7"]) == 1e-7
    monkeypatch.delenv("XI_VERIFY_TOL")
    assert reported_tol() == 1e-8


@pytest.mark.parametrize("value", ["abc", "", "nan", "-1"])
def test_malformed_tol_env_is_a_usage_error(value, monkeypatch, capsys):
    monkeypatch.setenv("XI_VERIFY_TOL", value)
    with pytest.raises(SystemExit) as exc:
        main(["--identity", "theta", "--alpha", "1"])
    assert exc.value.code == 2
    if value in ("abc", ""):
        assert "XI_VERIFY_TOL" in capsys.readouterr().err


class TestJobsWorkerCount:
    """--jobs asks the pool for no more workers than tasks or CPUs.

    The pool is a stand-in that records max_workers and runs the tasks in
    this process, so no worker process is started.
    """

    @pytest.mark.parametrize("jobs,cpus,want", [
        ("100000", 2, [2]),
        ("100000", 64, [5]),     # the default grid has 5 digamma cells
        ("3", 64, [3]),
        ("2", 1, []),            # one usable worker: the serial path
        ("100000", None, []),    # CPU count unknown: counted as 1
    ])
    def test_workers(self, jobs, cpus, want, monkeypatch):
        code, serial = run_cli(["--identity", "digamma"])
        assert code == 0
        made = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                made.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_worker_extra", None)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out = run_cli(["--identity", "digamma", "--jobs", jobs])
        assert code == 0
        assert made == want
        assert out == serial


def test_render_json_trailing_newline():
    rep = verify_theta(KernelParams(1.0, 0.0), 1e-8)
    text = render_json([report_to_dict(rep)])
    assert text.endswith("\n")
    assert json.loads(text)["all_pass"] is True


BATTERY_ORDER = ["theta", "hardy", "ferrar", "ramanujan", "digamma",
                 "lineint", "aux", "rhl"]


class TestFamilyTable:
    def test_every_identity_choice_has_one_entry(self):
        action = next(a for a in build_parser()._actions
                      if a.dest == "identity")
        choices = list(action.choices)
        assert len(set(choices)) == len(choices)
        assert [c for c in choices if c != "all"] == list(cli._FAMILIES)

    @pytest.mark.parametrize("with_zeros", [False, True])
    def test_all_runs_in_battery_order(self, with_zeros, sample_zeros_path,
                                       zero_records, monkeypatch):
        argv = ["--identity", "all", "--alpha", "2", "--z", "1"]
        if with_zeros:
            monkeypatch.setattr(cli, "prepare_zeros",
                                lambda path, max_count: zero_records)
            argv += ["--zeros", sample_zeros_path]
        code, out = run_cli(argv)
        assert code == 0
        families = []
        for report in json.loads(out)["reports"]:
            family = report["identity"].split(":")[0]
            if family not in families:
                families.append(family)
        assert families == BATTERY_ORDER[:len(BATTERY_ORDER) - 1
                                         + with_zeros]

    def test_verifier_is_looked_up_when_called(self, monkeypatch):
        # a tracer rebinds the verifier in every module that imported it;
        # the table must call the rebound function, not the original
        calls = []

        def recorded(params, tol):
            calls.append((params, tol))
            return verify_theta(params, tol)

        monkeypatch.setattr(identities, "verify_theta", recorded)
        monkeypatch.setattr(cli, "verify_theta", recorded)
        code, _ = run_cli(["--identity", "theta", "--alpha", "2", "--z", "1",
                           "--tol", "1e-8"])
        assert code == 0
        assert [(p.alpha, p.z, tol) for p, tol in calls] == [
            (2.0, 1.0 + 0.0j, 1e-8)]

    def test_error_and_passing_cells_have_the_same_keys(self):
        argv = ["--identity", "theta", "--alpha", "2", "--z", "0"]
        _, good = run_cli(argv + ["--tol", "1e-8"])
        _, bad = run_cli(argv + ["--tol", "1e-16"])
        good, bad = (json.loads(t)["reports"][0] for t in (good, bad))
        assert good["pass"] and not bad["pass"]
        assert "error" in bad["diagnostics"]
        assert set(good) == set(bad)
