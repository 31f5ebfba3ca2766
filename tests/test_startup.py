"""What importing the package starts.

`import xiverify` loads no numpy.  `import xiverify.cli` loads no
multiprocessing stack and no csv, and sets OpenBLAS to one thread unless
the environment already chose a count; a serial run after it imports
nothing more.  Each check runs in a fresh interpreter (conftest's
fresh_battery), since this one has imported everything already.  The
battery each one runs, with RuntimeWarning an error, writes the bytes of
a run in this process: a fresh process, with BLAS threads preset or
not, changes no report.
"""

import pytest

from xiverify import cli


@pytest.fixture(scope="module")
def battery(tmp_path_factory, sample_zeros_path):
    """The battery's JSON text from a run in this process."""
    out = tmp_path_factory.mktemp("reference") / "battery.json"
    assert cli.main(["--identity", "all", "--zeros", sample_zeros_path,
                     "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
def test_cli_import_budget(preset, want, battery, fresh_battery):
    facts, text = fresh_battery(preset)
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
    assert text == battery
