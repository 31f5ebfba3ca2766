import ast
import collections
import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import xiverify
from xiverify import cli, identities, specfun, xikernel
from xiverify.specfun import mobius_sieve

SAMPLE_ZEROS = pathlib.Path(xiverify.__file__).parent / "data" / "zeros_sample.txt"
SRC = str(pathlib.Path(xiverify.__file__).resolve().parents[1])

# imports nothing before its snapshots but sys and os, so a module the
# package loads is not hidden by the probe loading it first
PROBE = r"""
import os
import sys
import xiverify
facts = {"numpy_with_root": "numpy" in sys.modules,
         "blas_env_with_root": os.environ.get("OPENBLAS_NUM_THREADS")}
import xiverify.cli as cli
facts["unwanted"] = sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("concurrent", "multiprocessing", "csv"))
facts["blas_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
if os.path.isdir("/proc/self/task"):
    facts["threads"] = len(os.listdir("/proc/self/task"))
before = set(sys.modules)
facts["code"] = cli.main(["--identity", "all", "--zeros", sys.argv[1],
                          "--out", sys.argv[2]])
facts["added"] = sorted(set(sys.modules) - before)
print(repr(facts))
"""


@pytest.fixture(scope="session")
def sample_zeros_path():
    return str(SAMPLE_ZEROS)


@pytest.fixture(scope="session")
def fresh_battery(tmp_path_factory):
    """fresh_battery(blas_threads) -> (facts, JSON text) of the battery
    run by PROBE in a fresh interpreter, with RuntimeWarning an error and
    OPENBLAS_NUM_THREADS set to blas_threads (None: unset); each is run
    once, for test_startup's import budget and test_bytes' bytes."""
    made = {}

    def fresh_battery(blas_threads):
        if blas_threads not in made:
            out = tmp_path_factory.mktemp("fresh") / "battery.json"
            env = {k: v for k, v in os.environ.items()
                   if k != "OPENBLAS_NUM_THREADS"}
            if blas_threads is not None:
                env["OPENBLAS_NUM_THREADS"] = blas_threads
            env["PYTHONWARNINGS"] = "error::RuntimeWarning"
            env["PYTHONPATH"] = os.pathsep.join(
                [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
            proc = subprocess.run(
                [sys.executable, "-c", PROBE, str(SAMPLE_ZEROS), str(out)],
                env=env, capture_output=True, text=True, timeout=300,
                check=True)
            facts = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
            made[blas_threads] = facts, out.read_text()
        return made[blas_threads]

    return fresh_battery


def same_json(a, b):
    """a == b for JSON values, NaN equal to NaN."""
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same_json(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(map(same_json, a, b)))
    return a == b or (a != a and b != b)


def check_json_layout(dicts, text):
    """text is cli.render_json's layout of dicts: the head line, each
    dict as json.dumps(d, sort_keys=True) on a line of its own, in order,
    and the closing line; it parses to the payload."""
    all_pass = all(d["pass"] for d in dicts)
    lines = [json.dumps(d, sort_keys=True) for d in dicts]
    assert text.split("\n") == [
        '{"all_pass": %s, "reports": [' % json.dumps(all_pass),
        *[line + "," for line in lines[:-1]], *lines[-1:], "]}", ""]
    assert same_json(json.loads(text),
                     {"all_pass": all_pass, "reports": dicts})


@pytest.fixture(scope="session", autouse=True)
def json_layout_oracle():
    """For the whole session, cli.render_json checks each text it returns
    with check_json_layout; cli.main renders through it, so every JSON
    report a test makes in this process is checked."""
    render = cli.render_json

    @functools.wraps(render)
    def checked(dicts):
        text = render(dicts)
        check_json_layout(dicts, text)
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "render_json", checked)
        yield


@pytest.fixture(scope="session")
def zero_records(sample_zeros_path):
    """First 100 ordinates, refined with zeta derivatives attached.

    Session-scoped: refinement costs about half a second and several
    modules want the same records.
    """
    return xiverify.prepare_zeros(sample_zeros_path, max_count=100)


@pytest.fixture
def fresh_caches():
    """Every per-process cache emptied before and after the test, as in a
    fresh process; the test may call the returned reset again."""
    identities.reset_caches()
    yield identities.reset_caches
    identities.reset_caches()


@pytest.fixture
def summed_rows(monkeypatch):
    """A Counter of the Taylor series summed from here on, through
    specfun._hyp_series or xikernel's binding of it, one count per key
    (series argument, parameters): a call counts one key per group,
    keyed by the group's first argument, its only one in a row cache's
    call.  For a 1F1 row pair the parameters are the bytes of a, or of
    1/2 - a where Kummer's transformation takes it, naming the line and
    batch; the rows at w and -w that xikernel takes from one series
    count once.  The argument compares as the row
    cache's keys do, so either sign of a zero part counts as one key."""
    counts = collections.Counter()
    series = specfun._hyp_series

    def counted(name, num, den, z):
        params = b"".join(np.asarray(a, np.complex128).tobytes()
                          for a in num)
        counts.update((complex(np.ravel(g)[0]), params) for g in z)
        return series(name, num, den, z)

    monkeypatch.setattr(specfun, "_hyp_series", counted)
    monkeypatch.setattr(xikernel, "_hyp_series", counted)
    return counts


@pytest.fixture(scope="session")
def mobius_100k():
    return mobius_sieve(100000)


@pytest.fixture(scope="session")
def mobius_10k():
    return mobius_sieve(10000)
