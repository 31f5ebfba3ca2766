"""BENCHMARK.json names exactly what the benchmark measures."""

import json
import os
import re

import layers
import run
from conftest import ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_run_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]


def test_metrics_match_what_run_py_reports():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == run.END_TO_END
    per = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per == layers.PER_LAYER
    for m in SPEC["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_names_and_units_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in SPEC[key])
