"""A report's bytes do not depend on what the process ran before it.

The caches of specfun, xikernel, numseries and quad and the weight
tables of identities live as long as the process, and a --jobs worker
is forked with whatever its parent had cached.  So the same cells must
give the same bytes however a process came to them.  Each comparison
pins a run to a reference run that starts from identities.reset_caches(),
as a separate process does:

- --jobs 2 against serial: the battery as JSON and as CSV, the 12
  corners of the benchmark box ("anchors"), the Moebius split levels, a
  160-cell dense grid and 40 alphas at one z;
- families run in turn in one process, later ones on caches the earlier
  ones filled (on the dense grid, with rows evicted), and forked workers
  that inherit them;
- every cell run cold, reset_caches() just before it, against the warm
  run in family order;
- the battery in a fresh process with OPENBLAS_NUM_THREADS preset, the
  run tests/test_startup.py checks the import budget of.

Conftest's json_dumps_oracle checks every JSON text against json.dumps.
RuntimeWarning is an error (pyproject.toml), in forked workers too.
"""

import collections
import importlib
import importlib.util
import json
import pathlib
import pkgutil

import pytest

import xiverify
from xiverify import cli, identities, quad
from xiverify.zeros import prepare_zeros

TOL = 1e-8  # the CLI's default --tol


def _xi_sweep_grid(seed):
    """The xi_sweep workload's grid at seed, from perfbench/grid.py: the
    box's 12 anchors and 36 seeded points."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "grid.py"
    spec = importlib.util.spec_from_file_location("perfbench_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    return [(a, complex(re, im)) for a, re, im in grid.make_grid(seed, 36)]


# None is the CLI's built-in grid
GRIDS = {
    "default": None,
    "anchors": [(a, complex(re, im)) for a in (0.5, 2.0)
                for re in (-1.0, 0.0, 1.0) for im in (-2.0, 2.0)],
    # mobius_theta_sum sums n < n0 directly and n >= n0 by moment tails
    # cached per level, n0 the smallest power of two with
    # pi alpha^2 (1 + |z|^2) <= n0^2/4: these alpha sides sit at n0 = 1,
    # 2, 4, ..., 64, and alpha 3000 above the table's N = 1e4, where
    # every n is in the head and the tail bound fails the report
    "levels": [(0.05, 0j), (0.3, 1j), (1.0, 0j), (1.3, 1.0 + 0.5j),
               (2.0, 1.0 + 1.0j), (2.0, -1.0 + 2.0j), (5.0, 2j),
               (3000.0, 0j)],
    # 160 distinct z^2/4 on each of the three Xi lines are 480 row-cache
    # keys, more than xikernel._RHO_ROW_KEYS: each later family finds
    # some of the earlier rows evicted and sums them again
    "dense": [(0.5 + 0.01 * k, complex(-1.0 + k / 100.0,
                                       -2.0 + (37 * k % 160) / 40.0))
              for k in range(160)],
    # one z^2/4 group of 40 cells, more than a worker's share of 20: the
    # group is cut in two
    "single_z": [(0.5 + 0.05 * k, 1.0 + 0.5j) for k in range(40)],
    # three distinct z^2/4, z and -z among them: whole groups per worker
    "signs": [(a, complex(re, im)) for a in (0.5, 2.0)
              for re, im in ((1.0, 0.0), (-1.0, 0.0), (0.0, 2.0),
                             (1.0, 0.5), (-1.0, -0.5))],
    "rhl_pair": [(2.0, 1.0 + 0j), (0.5, 2j)],
    # rhl's prepare step sums every cell's zero-sum rows as one grouped
    # series: passing cells with z and -z, the same -z^2/4 at two alphas
    # and one w on both sides (z = 1 + 0.5i on the alpha side, -0.5 + i
    # on the beta side); z = 15, whose w = -56.25 lies past hyp1f1's
    # range; and alpha = 1e-5 at z = 2, whose beta side's Moebius tail
    # bound is not finite after its alpha side has taken its zero sums
    "rhl_edges": [(1.0, 1.0 + 0.5j), (2.0, -1.0 - 0.5j), (0.5, 2j),
                  (0.8, -2j), (1.25, 1.0 + 0.5j), (1.0, 15.0 + 0j),
                  (1.0, -0.5 + 1j), (1e-5, 2.0 + 0j)],
    # 150 distinct z^2/4, two row-cache keys each (-z^2/4 and z^2/4, from
    # one series), more than the cache's 256, then the first 20 points
    # again
    "rhl_wide": [(0.5 + 0.01 * k, complex(0.5 + k / 100.0, (k % 7) / 10.0))
                 for k in [*range(150), *range(20)]],
    **{"xi_sweep_%d" % seed: _xi_sweep_grid(seed) for seed in (1, 2, 3)},
}
XI_FAMILIES = ("theta", "hardy", "ramanujan", "lineint")


@pytest.fixture(scope="module")
def run(tmp_path_factory, sample_zeros_path):
    """run(family, grid, jobs, fmt) -> (exit code, text) of one cli.main
    call in this process, each grid read from a file of its exact
    floats."""
    where = tmp_path_factory.mktemp("bytes")
    grid_args = {}
    for name, points in GRIDS.items():
        grid_args[name] = []
        if points is not None:
            path = where / (name + ".txt")
            path.write_text("".join("%r %r %r\n" % (a, z.real, z.imag)
                                    for a, z in points))
            grid_args[name] = ["--grid", "file:%s" % path]
    out = where / "out"

    def run(family, grid, jobs=1, fmt="json"):
        argv = ["--identity", family, "--jobs", str(jobs), "--format", fmt,
                "--out", str(out), *grid_args[grid]]
        if family in ("rhl", "all"):
            argv += ["--zeros", sample_zeros_path]
        return cli.main(argv), out.read_text()

    return run


@pytest.fixture(scope="module")
def separate(run):
    """separate(family, grid, fmt) -> run's (exit code, text) from reset
    caches, as a process of its own writes it; each is made once."""
    made = {}

    def separate(family, grid, fmt="json"):
        key = family, grid, fmt
        if key not in made:
            identities.reset_caches()
            made[key] = run(family, grid, fmt=fmt)
        return made[key]

    return separate


# (family, grid, format, reports in the run, exit code)
JOBS_INPUTS = [
    ("all", "default", "json", 139, 0),
    ("all", "default", "csv", None, 0),
    *[(f, "anchors", "json", 12, 0)
      for f in ("theta", "hardy", "ferrar", "ramanujan", "lineint", "rhl")],
    ("rhl", "levels", "json", 8, 1),
    *[(f, "dense", "json", 160, 0) for f in XI_FAMILIES],
    ("theta", "single_z", "json", 40, 0),
    ("digamma", "default", "json", 5, 0),
    ("theta", "signs", "json", 10, 0),
    ("rhl", "rhl_pair", "json", 2, 0),
    ("rhl", "rhl_edges", "json", 8, 1),
]


@pytest.mark.parametrize("family,grid,fmt,reports,code", JOBS_INPUTS,
                         ids=["-".join(i[:3]) for i in JOBS_INPUTS])
def test_jobs_match_serial(family, grid, fmt, reports, code, run,
                           separate):
    # each worker runs its own shard of whole z^2/4 groups, or of a cut
    # group, and takes the prepared zeros along
    want = separate(family, grid, fmt)
    assert want[0] == code
    if reports is not None:
        assert len(json.loads(want[1])["reports"]) == reports
    identities.reset_caches()
    assert run(family, grid, jobs=2, fmt=fmt) == want


# runs made in turn in one process after one reset: (family, grid, jobs)
ONE_PROCESS = {
    "family_order": [(f, "anchors", 1) for f in cli._FAMILIES],
    "xi_anchors": [(f, "anchors", 1) for f in XI_FAMILIES],
    # forked children inherit the caches the serial calls filled, and
    # the parent runs its own shard on them
    "warm_forks": [(f, "anchors", jobs) for jobs in (1, 2)
                   for f in ("theta", "rhl")],
    # the anchors take the zero sums' log-Gamma factors and the 1F1 rows
    # from the caches the default grid filled
    "rhl_after_default": [("rhl", "default", 1), ("rhl", "anchors", 1)],
    "levels_after_default": [("rhl", "default", 1), ("rhl", "levels", 1)],
    # zero-sum rows, inverse-Mellin rows and Xi rows share one LRU cache
    "shared_rows": [(f, "anchors", 1)
                    for f in ("theta", "lineint", "aux", "rhl")],
    # evicted rows are summed again, node-only data stays warm
    "dense": [(f, "dense", 1) for f in XI_FAMILIES],
    # the prepare step finds some rows cached, and forked workers run it
    # on the caches they inherit
    "rhl_edges": [("rhl", "anchors", 1), ("rhl", "rhl_edges", 1),
                  ("rhl", "rhl_edges", 2)],
}


@pytest.mark.parametrize("name", ONE_PROCESS)
def test_one_process_matches_separate_runs(name, run, separate):
    runs = ONE_PROCESS[name]
    want = [separate(family, grid) for family, grid, _ in runs]
    identities.reset_caches()
    for (family, grid, jobs), w in zip(runs, want):
        assert run(family, grid, jobs=jobs) == w, (family, grid, jobs)


def test_rhl_edges_fail_with_their_own_errors(separate):
    code, text = separate("rhl", "rhl_edges")
    failed = {r["alpha"]: r["diagnostics"]["error"]
              for r in json.loads(text)["reports"] if not r["pass"]}
    assert failed.keys() == {1.0, 1e-5}
    assert failed[1.0].startswith("hyp1f1: |z| = 56.25 outside")
    assert failed[1e-5].startswith("mobius_theta_sum: tail bound")


def test_rhl_past_the_row_cache_sums_no_row_more_often(run, separate,
                                                       summed_rows,
                                                       monkeypatch):
    # rhl_wide's 300 zero-sum keys overflow the row cache: the prepare
    # step fills the first 128, the cells sum the rest.  Each key's -w
    # is a key too, and the step sums both from one series.  Against the
    # cells summing every row themselves (no prepare step), where a
    # cell's two sides sum the series at +-w apart, and again for the
    # points run twice, the bytes are the same and no series is summed
    # more often
    want = separate("rhl", "rhl_wide")
    assert want[0] == 0
    identities.reset_caches()
    summed_rows.clear()
    assert run("rhl", "rhl_wide") == want
    prepared = collections.Counter(summed_rows)
    monkeypatch.setitem(cli._FAMILIES, "rhl", cli._FAMILIES["rhl"][:2]
                        + (None,))
    identities.reset_caches()
    summed_rows.clear()
    assert run("rhl", "rhl_wide") == want
    assert len(summed_rows) == 150 and prepared.keys() == summed_rows.keys()
    assert max(summed_rows.values()) == 4
    assert all(prepared[key] <= n for key, n in summed_rows.items())


# every family with a prepare step, on the grids it fills rows for
PREPARED = [(f, g) for f in ("theta", "hardy", "ferrar", "ramanujan",
                             "lineint")
            for g in ("xi_sweep_1", "xi_sweep_2", "xi_sweep_3", "dense")]
PREPARED.append(("rhl", "rhl_edges"))


@pytest.mark.parametrize("family,grid", PREPARED,
                         ids=["-".join(p) for p in PREPARED])
def test_prepare_step_keeps_the_bytes(family, grid, run, separate,
                                      monkeypatch):
    # the prepare step only sums ahead what the cells would sum: the run
    # without it writes the same bytes
    want = separate(family, grid)
    monkeypatch.setitem(cli._FAMILIES, family, cli._FAMILIES[family][:2]
                        + (None,))
    identities.reset_caches()
    assert run(family, grid) == want


def test_moebius_levels_fail_only_past_the_table(separate):
    code, text = separate("rhl", "levels")
    assert code == 1
    failed = [r for r in json.loads(text)["reports"] if not r["pass"]]
    assert [r["alpha"] for r in failed] == [3000.0]
    assert failed[0]["diagnostics"]["alpha_side"]["mobius_tail_bound"] > TOL


def _text(reports):
    return json.dumps(reports, sort_keys=True)


# grid -> the cells run cold, as (family, start, step) over its tasks
COLD = {
    "anchors": [(f, 0, 1) for f in cli._FAMILIES],
    "levels": [("rhl", 0, 1)],
    # every 4th cell, the families taking them in turn
    "dense": [(f, 4 * i, 16) for i, f in enumerate(XI_FAMILIES)],
}


@pytest.mark.parametrize("grid", COLD)
def test_cold_cells_match_warm_runs(grid, separate, sample_zeros_path):
    # each cell alone from reset caches, against its reports in the
    # separate run, whose bytes the warm runs in family order write too
    # (test_one_process_matches_separate_runs)
    zeros = prepare_zeros(sample_zeros_path,
                          max_count=max(identities.RHL_COUNTS))
    for family, start, step in COLD[grid]:
        warm = json.loads(separate(family, grid)[1])["reports"]
        tasks = cli.build_tasks(family, GRIDS[grid], TOL, zeros)
        # aux's one task gives all its reports, every other task one
        per_task = [warm] if family == "aux" else [[r] for r in warm]
        assert len(per_task) == len(tasks)
        for task, reports in list(zip(tasks, per_task))[start::step]:
            identities.reset_caches()
            got = cli._run_task(task, zeros)
            # json.dumps prints every float as its repr, bit for bit
            assert _text(got) == _text(reports), task


def test_battery_in_a_fresh_process_with_preset_blas_threads(
        separate, fresh_battery):
    # cli keeps a preset OPENBLAS_NUM_THREADS instead of its default of
    # one thread; a fresh process needs no reset
    facts, text = fresh_battery("3")
    assert facts["code"] == 0
    assert text == separate("all", "default")[1]


def _package_caches():
    """(name, object) for every cache with functools' cache_info and every
    weight table that a module of the package holds, each once."""
    found = {}
    for info in pkgutil.iter_modules(xiverify.__path__):
        module = importlib.import_module("xiverify." + info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, quad.NodeTable) or (
                    hasattr(obj, "cache_info")
                    and obj.__module__.startswith("xiverify.")):
                found.setdefault(id(obj), ("%s.%s" % (info.name, name), obj))
    return list(found.values())


def _size(cache):
    if isinstance(cache, quad.NodeTable):
        return cache.levels
    return cache.cache_info().currsize


def test_reset_caches_reaches_every_cache(run):
    # the battery touches every layer, so it fills every cache
    run("all", "default")
    caches = _package_caches()
    assert len(caches) >= 20
    assert [name for name, c in caches if _size(c) == 0] == []
    identities.reset_caches()
    assert [name for name, c in caches if _size(c) != 0] == []
