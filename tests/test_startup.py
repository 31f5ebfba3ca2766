"""What importing the package starts.

`import xiverify` loads no numpy.  `import xiverify.cli` loads no
multiprocessing stack and no csv, and sets OpenBLAS to one thread unless
the environment already chose a count; a serial run after it imports
nothing more.  Each check runs in a fresh interpreter, since this one has
imported everything already.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import xiverify

SRC = str(pathlib.Path(xiverify.__file__).resolve().parents[1])
ZEROS = str(pathlib.Path(xiverify.__file__).parent / "data"
            / "zeros_sample.txt")

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


def _probe(tmp_path, blas_threads):
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, ZEROS, str(tmp_path / "battery.json")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
def test_cli_import_budget(tmp_path, preset, want):
    facts = _probe(tmp_path, preset)
    # a library import changes no environment and loads no numpy
    assert facts["numpy_with_root"] is False
    assert facts["blas_env_with_root"] == preset
    assert facts["unwanted"] == []
    assert facts["blas_env"] == want
    if preset is None and "threads" in facts:
        # no idle BLAS helper threads
        assert facts["threads"] == 1
    assert facts["code"] == 0
    assert facts["added"] == []
