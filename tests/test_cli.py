"""Command-line surface: argument parsing, output formats, exit codes."""

import collections
import csv
import errno
import io
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xiverify import cli, identities, xikernel
from xiverify.cli import (build_parser, default_grid, load_grid_file, main,
                          parse_z, report_to_dict, render_json)
from xiverify.identities import verify_theta
from xiverify.specfun import mobius_sieve
from xiverify.xikernel import KernelParams

SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])


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

    def test_aux_battery(self):
        code, out = run_cli(["--identity", "aux"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 14
        # the aux reports take the run's tol, from --tol (default 1e-8),
        # like every other family
        assert {r["tolerance"] for r in doc["reports"]} == {1e-8}
        code, out = run_cli(["--identity", "aux", "--tol", "1e-6"])
        assert code == 0
        assert {r["tolerance"] for r in json.loads(out)["reports"]} == {1e-6}

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

    def test_csv_error_report_leaves_the_residual_empty(self):
        # an error report has no residuals; 0.0 would read as agreement
        code, out = run_cli(["--identity", "theta", "--alpha", "1",
                             "--z", "40i", "--format", "csv"])
        assert code == 1
        assert out.splitlines()[1:] == ["theta,1.0,40.0i,,,1e-08,fail"]

    def test_out_file_and_determinism(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["--identity", "theta", "--alpha", "1.25", "--z", "0.5i"]
        code, _ = run_cli(argv + ["--out", str(a)])
        assert code == 0
        code, _ = run_cli(argv + ["--out", str(b)])
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tasks_do_not_carry_the_zeros(self, zero_records):
        tasks = cli.build_tasks("all", default_grid(), 1e-8, zero_records)
        assert any(t[0] == "rhl" for t in tasks)
        for task in tasks:
            kind, alpha, z, tol = task
            assert kind in cli._FAMILIES
            assert (type(alpha), type(z), tol) == (float, complex, 1e-8)

    def test_grid_file_mode(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text("1.0 0.0 0.0\n2.0 0.0 0.0\n")
        code, out = run_cli(["--identity", "theta", "--grid",
                             f"file:{p}"])
        assert code == 0
        doc = json.loads(out)
        assert [r["alpha"] for r in doc["reports"]] == [1.0, 2.0]

    def test_failure_exit_code(self, sample_zeros_path, monkeypatch):
        # ten Moebius terms leave a tail bound above tol: a reported failure
        monkeypatch.setattr(identities, "RHL_MOBIUS_LIMIT", 10)
        code, out = run_cli(["--identity", "rhl", "--zeros",
                             sample_zeros_path, "--alpha", "2", "--z", "0"])
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
        # the series sides refuse more than 1e7 terms: the first two used
        # to end in numpy's MemoryError (373 GiB, 25.7 TiB), the next two
        # in a traceback from a prefactor that overflowed before the sum
        (["--identity", "digamma", "--alpha", "1e-9"], "lambda_sum"),
        (["--identity", "theta", "--alpha", "1e-12"], "theta_sum"),
        (["--identity", "theta", "--alpha", "1", "--z", "1e11i"],
         "theta_sum"),
        (["--identity", "digamma", "--alpha", "1e-320"], "lambda_sum"),
        # a quadrature that cannot reach its target, and an overflow
        (["--identity", "hardy", "--alpha", "1e5", "--z", "40i"], "quad"),
        (["--identity", "theta", "--alpha", "1", "--z", "40i"],
         "floating-point error"),
    ])
    def test_series_term_ceiling_is_a_failing_report(self, argv, name):
        # conftest's json_dumps_oracle checks the bytes against json.dumps
        code, out = run_cli(argv)
        assert code == 1
        report, = json.loads(out)["reports"]
        assert report["pass"] is False
        assert report["sides"] == {}
        assert report["diagnostics"]["error"].startswith(name + ": ")

    def test_floating_point_error_is_a_failing_report(self):
        # z = 40i puts cos(sqrt(pi) alpha n z) = cosh(70.9 n) into the
        # alpha series, which overflows from n = 11; left as a warning, it
        # would make a NaN side
        report, = cli._run_task(("theta", 1.0, 40j, 1e-8), None)
        assert report["pass"] is False
        assert report["sides"] == {}
        assert report["diagnostics"]["error"].startswith(
            "floating-point error: overflow")

    def test_rhl_cold_and_warm_sieve_same_bytes(self, sample_zeros_path,
                                                 tmp_path, fresh_caches):
        argv = ["--identity", "rhl", "--zeros", sample_zeros_path,
                "--alpha", "2", "--z", "1"]
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
        ["--identity", "theta", "--mobius-limit", "10"],  # flag removed
        ["--identity", "theta", "--grid", "bogus"],
    ])
    def test_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("where", ["missing/x.json", "."])
    def test_unwritable_out(self, where, tmp_path, capsys):
        # every cell is computed first; the failed write is still a usage
        # error naming the path, not a traceback with status 1
        out = tmp_path / where
        with pytest.raises(SystemExit) as exc:
            main(["--identity", "theta", "--alpha", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "cannot write --out %s" % out in capsys.readouterr().err

    def test_empty_zeros_file(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["--identity", "rhl", "--zeros", str(p), "--alpha", "1"])
        assert exc.value.code == 2
        assert "no ordinates" in capsys.readouterr().err


class TestJobsWorkerCount:
    """--jobs asks for no more workers than tasks or usable CPUs, and
    hands each worker one shard.

    The runner is a stand-in that records the shards and runs them in
    this process, so no worker process is started.
    """

    def run_recorded(self, jobs, monkeypatch):
        code, serial = run_cli(["--identity", "digamma"])
        assert code == 0
        made, shards = [], []

        def recording_runner(task_shards, extra):
            made.append(len(task_shards))
            shards.extend(task_shards)
            return [cli._run_shard(s, extra) for s in task_shards]

        monkeypatch.setattr(cli, "_fork_shards", recording_runner)
        code, out = run_cli(["--identity", "digamma", "--jobs", jobs])
        assert code == 0
        assert out == serial
        if made:
            # one nonempty shard per worker, together every task once
            assert len(made) == 1 and all(shards)
            assert sorted(t for s in shards for t in s) == sorted(
                cli.build_tasks("digamma", default_grid(), 1e-8, None))
        return made

    @pytest.mark.parametrize("jobs,cpus,want", [
        ("100000", 2, [2]),
        ("100000", 64, [5]),     # the default grid has 5 digamma cells
        ("3", 64, [3]),
        ("2", 1, []),            # one usable worker: the serial path
        ("100000", None, []),    # CPU count unknown: counted as 1
    ])
    def test_workers(self, jobs, cpus, want, monkeypatch):
        if cpus is None:
            # only a platform without an affinity mask can lack a count
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        # the affinity mask, not the host's count, bounds the workers
        monkeypatch.setattr(cli.os, "cpu_count",
                            lambda: None if cpus is None else 4096)
        assert self.run_recorded(jobs, monkeypatch) == want

    def test_cpu_count_without_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert self.run_recorded("100000", monkeypatch) == [2]

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
        monkeypatch.delattr(cli.os, "fork", raising=False)
        assert self.run_recorded("100000", monkeypatch) == []


# digamma runs once per alpha: five cells, so two workers on two cores
_DIGAMMA_JOBS = ["--identity", "digamma", "--jobs", "2"]


class TestForkedWorkers:
    """The --jobs runner with real children: a child's failure reaches
    the caller, nothing hangs, and every child is reaped."""

    @pytest.fixture(autouse=True)
    def two_workers_and_no_orphans(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        # a hang fails the test instead of stalling the suite
        old = signal.signal(signal.SIGALRM, self._timed_out)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _timed_out(signum, frame):
        raise TimeoutError("--jobs run hung")

    @staticmethod
    def in_children(action, monkeypatch):
        """Stub digamma's verifier to call action() in a child only."""
        parent = os.getpid()
        verify = cli.verify_ramanujan_digamma

        def stub(alpha, tol):
            if os.getpid() != parent:
                action()
            return verify(alpha, tol)

        monkeypatch.setattr(cli, "verify_ramanujan_digamma", stub)

    def test_child_exception_is_raised(self, monkeypatch, tmp_path):
        def fail():
            raise RuntimeError("shard failed in pid %d" % os.getpid())

        self.in_children(fail, monkeypatch)
        out = tmp_path / "out.json"
        with pytest.raises(RuntimeError, match=r"shard failed in pid \d+"):
            main(_DIGAMMA_JOBS + ["--out", str(out)])
        assert not out.exists()

    def test_child_without_result_is_named(self, monkeypatch, tmp_path):
        self.in_children(lambda: os._exit(3), monkeypatch)
        out = tmp_path / "out.json"
        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(
                RuntimeError, match=r"worker 2 \(pid \d+\) ended without a "
                                    r"result \(exit code 3\)"):
            main(_DIGAMMA_JOBS + ["--out", str(out)])
        assert not out.exists()
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("workers,failing", [(2, {1}), (3, {2}),
                                                 (3, {1, 2})],
                             ids=["only", "second", "both"])
    def test_failed_fork_runs_its_shard_here(self, workers, failing,
                                             monkeypatch, tmp_path):
        # os.fork failing with EAGAIN, as at a process limit, leaves that
        # shard to this process: the run writes the serial bytes, and the
        # autouse fixture finds no child left
        serial = tmp_path / "serial.json"
        assert main(["--identity", "digamma", "--out", str(serial)]) == 0
        fork, forks = os.fork, []

        def limited_fork():
            forks.append(len(forks) + 1)
            if forks[-1] in failing:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            return fork()

        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(os, "fork", limited_fork)
        out = tmp_path / "out.json"
        assert main(["--identity", "digamma", "--jobs", str(workers),
                     "--out", str(out)]) == 0
        assert forks == list(range(1, workers))
        assert out.read_bytes() == serial.read_bytes()

    def test_parent_failure_does_not_wait_on_a_full_pipe(self, monkeypatch):
        # the child's result is far larger than a pipe holds, and the
        # parent fails before reading it: closing the read end lets the
        # child's write fail, so the parent can reap it
        parent = os.getpid()

        def shard(tasks, extra):
            if os.getpid() == parent:
                raise RuntimeError("parent shard failed")
            return [["x" * (1 << 22)] for _ in tasks]

        monkeypatch.setattr(cli, "_run_shard", shard)
        with pytest.raises(RuntimeError, match="parent shard failed"):
            main(_DIGAMMA_JOBS)

    def test_stdout_report_is_written_once(self):
        # text left in the parent's stdout buffer at the fork is not
        # flushed again by a child
        script = ("import sys\n"
                  "from xiverify import cli\n"
                  "cli._usable_cpus = lambda: 2\n"
                  "sys.stdout.write('before the fork\\n')\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)   # stdout buffered, as on a pipe
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in [env.get("PYTHONPATH")] if p])

        def run(argv):
            proc = subprocess.run([sys.executable, "-c", script, *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=120, check=True)
            return proc.stdout

        serial = run(["--identity", "digamma"])
        assert serial.startswith("before the fork\n")
        assert run(_DIGAMMA_JOBS) == serial
        assert serial.count('"all_pass"') == 1
        assert serial == "before the fork\n" + run_cli(["--identity",
                                                          "digamma"])[1]


def _shard_task(z):
    return ("theta", 1.0, complex(z), 1e-8)


# z values whose w = z^2/4 repeat under z -> -z and either zero sign
_SHARD_ZS = (0.0, 1.0, 2j, 1.0 + 0.5j, 3.0)


class TestShardTasks:
    """cli.shard_tasks: whole +-w groups per worker, w = z^2/4, cut only
    past the share ceil(n / workers)."""

    @staticmethod
    def check(tasks, workers):
        shards = cli.shard_tasks(tasks, workers)
        share = -(-len(tasks) // workers)
        assert 1 <= len(shards) <= workers
        assert all(s == sorted(s) and s for s in shards)
        assert sorted(i for s in shards for i in s) == list(range(len(tasks)))
        where = {i: k for k, s in enumerate(shards) for i in s}
        groups = {}
        for i, task in enumerate(tasks):
            w = 0.25 * task[2] * task[2]
            groups.setdefault(w * w, []).append(i)
        for group in groups.values():
            touched = {where[i] for i in group}
            assert len(touched) <= -(-len(group) // share)
        sizes = [len(s) for s in shards]
        # a shard left empty means every shard took one piece of at most
        # the share
        low = min(sizes) if len(shards) == workers else 0
        assert max(sizes) - low <= share
        return shards

    def test_signs_of_z_and_of_zero_share_a_group(self):
        # w = 1/4 comes as 0.25+0j or 0.25-0j; were they two groups of
        # two, the pieces would deal 3, 3, 2, 2 and split them
        zs = [1.0, 3.0, -1.0, 2j, complex(1.0, -0.0), 3.0,
              complex(-1.0, -0.0), 2j, 3.0, 2j]
        shards = self.check([_shard_task(z) for z in zs], 2)
        assert shards == [[0, 2, 4, 6], [1, 3, 5, 7, 8, 9]]

    def test_group_within_the_share_stays_whole(self):
        # 7 tasks on 2 workers: share 4, so the 4-cell group is not cut
        zs = [1.0, 2j, 1.0, 2j, -1.0, 3.0, -1.0]
        shards = self.check([_shard_task(z) for z in zs], 2)
        assert [0, 2, 4, 6] in shards

    def test_one_w_spreads_over_every_worker(self):
        tasks = [_shard_task(0.0)] * 5
        assert self.check(tasks, 2) == [[0, 1, 2], [3, 4]]
        assert self.check(tasks, 5) == [[0], [1], [2], [3], [4]]

    def test_default_battery(self):
        tasks = cli.build_tasks("all", default_grid(), 1e-8, ())
        for workers in (2, 3, 4):
            self.check(tasks, workers)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_SHARD_ZS), st.booleans(),
                              st.booleans()), min_size=1, max_size=40),
           st.integers(1, 6))
    def test_random_grids(self, cells, workers):
        tasks = []
        for z, negate, zero_sign in cells:
            z = -z if negate else complex(z)
            if zero_sign:
                # flip the sign of each zero part
                z = complex(z.real or -z.real, z.imag or -z.imag)
            tasks.append(_shard_task(z))
        self.check(tasks, min(workers, len(tasks)))

    def test_no_row_is_summed_twice(self, summed_rows, fresh_caches,
                                    zero_records):
        # every family over 10 points and 4 distinct +-w, each family's
        # rows in one grouped series per line and shard: each shard, run
        # from reset caches as a fresh worker would, sums each series
        # once, and only series no other shard sums, so together they sum
        # the series of one serial run once each.  1 + 0.5i and -0.5 + i
        # take their rows at w and -w, from one series, so they share a
        # shard.  Dealing the tasks round robin (the order of a
        # one-task-per-round-trip map) splits every group and sums series
        # in both shards.
        grid = [(a, complex(z)) for a in (0.5, 2.0)
                for z in (1.0, 2j, 1.0 + 0.5j, -1.0, -0.5 + 1j)]
        zeros = zero_records[:10]
        tasks = cli.build_tasks("all", grid, 1e-8, zeros)

        def rows(shards):
            per_shard = []
            for shard in shards:
                fresh_caches()
                summed_rows.clear()
                cli._run_shard([tasks[i] for i in shard], zeros)
                assert set(summed_rows.values()) == {1}
                per_shard.append(collections.Counter(summed_rows))
            return per_shard

        serial, = rows([range(len(tasks))])
        # the rows' series at 1/4, 1 and 0.1875+0.25i (each of them also at
        # -w), and aux's at 0 and +-1/16
        assert len({w for w, _ in serial}) == 6
        assert sum(rows(cli.shard_tasks(tasks, 2)),
                   collections.Counter()) == serial
        split = sum(rows([range(len(tasks))[k::2] for k in (0, 1)]),
                    collections.Counter())
        assert split.keys() == serial.keys() and max(split.values()) == 2


def test_render_json_trailing_newline():
    rep = verify_theta(KernelParams(1.0, 0.0), 1e-8)
    text = cli.render_json([report_to_dict(rep)])
    assert text.endswith("\n")
    assert json.loads(text)["all_pass"] is True


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _rendered(obj):
    out = []
    cli._append_json(obj, "\n", out)
    return "".join(out)


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                2.2250738585072014e-308, 1e-310, 1e308,
                1.7976931348623157e308, 0.1, 1e16, 1e-5)
_EDGE_STRINGS = ("", '"', "\\", "\x00\x1f\x7f", "\t\n\r\b\f", "\u00e9",
                 "\u2028", "\U0001f600", "\ud800", "key \"q\" \\ e\u0301")
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10 ** 40, 10 ** 40), st.floats(),
    st.sampled_from(_EDGE_FLOATS), st.text(),
    st.sampled_from(_EDGE_STRINGS))
_JSON_KEYS = st.text() | st.sampled_from(_EDGE_STRINGS)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_JSON_KEYS, children, max_size=4)),
    max_leaves=40)


class TestJsonEncoder:
    """cli renders JSON itself; json.dumps(sort_keys=True, indent=2) is the
    oracle for every byte."""

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, obj):
        assert _rendered(obj) == _dumps(obj)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.builds(lambda d, p: {**d, "pass": p},
                              st.dictionaries(st.text(), _JSON_VALUES,
                                              max_size=5),
                              st.booleans()), max_size=5))
    def test_render_json_matches_json_dumps(self, dicts):
        payload = {"reports": dicts, "all_pass": all(d["pass"] for d in dicts)}
        assert render_json(dicts) == _dumps(payload) + "\n"

    @pytest.mark.parametrize("obj", [
        {}, [], [None, True, False, 0, -1],
        {"a": {}, "b": [], "c": [{}, []]},
        {"x": np.float64(0.1), "y": [np.float64("nan"), np.float64(-0.0)]},
        {"b": 1, "a": 2, "B": 3, "\u00e9": 4, "": 5},
        {"big": 10 ** 30, "neg": -2, "tiny": 5e-324},
        [[[[]]], {"x": [{"y": {}}]}], {"null": None, "list": [None]},
    ])
    def test_cases(self, obj):
        assert _rendered(obj) == _dumps(obj)

    @pytest.mark.parametrize("obj", [
        (), [1, (2, 3)], {1: "a", -2: "b", 10 ** 30: "c"},
        {1.5: 0, -0.0: 1, math.inf: 2}, {True: 1, False: 0}, {None: [None]},
    ])
    def test_only_the_writer_rejects_tuples_and_non_str_keys(self, obj):
        # json.dumps writes a tuple as a list and quotes a number, bool or
        # None key as its text; no report holds either
        _dumps(obj)
        with pytest.raises(TypeError):
            _rendered(obj)

    @pytest.mark.parametrize("obj", [
        {"pass": np.bool_(True)}, [1, {2, 3}], {"n": np.int64(3)},
        {(1, 2): 0}, [complex(1, 2)],
    ])
    def test_unencodable_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            _dumps(obj)
        with pytest.raises(TypeError):
            _rendered(obj)


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

    def test_families_with_a_prepare_step(self):
        # every family whose cells take 1F1 rows at many w
        assert [kind for kind, entry in cli._FAMILIES.items()
                if entry[2] is not None] == ["theta", "hardy", "ferrar",
                                             "ramanujan", "lineint", "rhl"]

    @pytest.mark.parametrize("family", ["theta", "hardy", "ferrar",
                                        "ramanujan", "lineint", "rhl"])
    def test_prepare_step_sums_every_row_its_cells_take(
            self, family, summed_rows, fresh_caches, zero_records,
            monkeypatch):
        # on the default grid no Xi side refines past its start batch, so
        # once the step has run, the family's cells sum no series at all
        name = "prepare_rhl" if family == "rhl" else "prepare_xi_sides"
        prepare, after = getattr(cli, name), []

        def recorded(*args):
            prepare(*args)
            after.append(collections.Counter(summed_rows))

        monkeypatch.setattr(cli, name, recorded)
        zeros = zero_records[:10]
        cli._run_shard(cli.build_tasks(family, default_grid(), 1e-8, zeros),
                       zeros)
        assert len(after) == 1 and after[0] and summed_rows == after[0]

    def test_prepare_step_runs_before_the_first_rhl_cell(self, monkeypatch,
                                                         zero_records):
        # once per shard, over the shard's rhl points in cell order, after
        # the other families' cells; serial runs take the same path
        events = []
        monkeypatch.setattr(cli, "prepare_rhl", lambda points, zeros:
                            events.append(("prepare", points, len(zeros))))
        monkeypatch.setattr(cli, "_run_task", lambda task, zeros:
                            events.append(task[:2]) or [])
        grid = [(0.5, 1j), (2.0, 1.0 + 0j)]
        shard = (cli.build_tasks("digamma", grid, 1e-8, zero_records)
                 + cli.build_tasks("rhl", grid, 1e-8, zero_records))
        cli._run_shard(shard, zero_records)
        assert events == [("digamma", 0.5), ("digamma", 2.0),
                          ("prepare", [(0.5, 1j), (2.0, 1.0 + 0j)], 100),
                          ("rhl", 0.5), ("rhl", 2.0)]
        del events[:]
        cli._run_shard(cli.build_tasks("digamma", grid, 1e-8, None), None)
        assert [e[0] for e in events] == ["digamma", "digamma"]
        del events[:]
        monkeypatch.setattr(cli, "prepare_zeros",
                            lambda path, max_count: zero_records)
        run_cli(["--identity", "rhl", "--zeros", "zeros.txt", "--alpha", "1",
                 "--z", "2"])
        assert events == [("prepare", [(1.0, 2.0 + 0j)], 100), ("rhl", 1.0)]

    @pytest.mark.parametrize("error", [ValueError, FloatingPointError])
    def test_failed_prepare_step_leaves_the_reports(self, error, monkeypatch,
                                                    sample_zeros_path):
        # a step that raises caches nothing: each cell sums its own rows,
        # the z = 15 cell reports hyp1f1's range in its own words
        argv = ["--identity", "rhl", "--zeros", sample_zeros_path,
                "--alpha", "1", "--z", "15"]
        code, want = run_cli(argv)
        assert code == 1 and "outside the working range" in want

        def failing(points, zeros):
            raise error("prepare failed")

        monkeypatch.setattr(cli, "prepare_rhl", failing)
        identities.reset_caches()
        assert run_cli(argv) == (1, want)

    def test_error_and_passing_cells_have_the_same_keys(self):
        argv = ["--identity", "theta", "--alpha", "2", "--z", "0"]
        _, good = run_cli(argv + ["--tol", "1e-8"])
        _, bad = run_cli(argv + ["--tol", "1e-16"])
        good, bad = (json.loads(t)["reports"][0] for t in (good, bad))
        assert good["pass"] and not bad["pass"]
        assert "error" in bad["diagnostics"]
        assert set(good) == set(bad)
