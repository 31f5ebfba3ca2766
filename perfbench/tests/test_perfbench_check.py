import copy
import json
import math

import check
import run

GRID = [(0.5, 0j), (2.0, 1 + 0.5j)]


def report(identity, alpha, z, residual=1e-12, tol=1e-8, passed=True):
    return {"identity": identity, "alpha": alpha,
            "z": [complex(z).real, complex(z).imag], "sides": {},
            "residuals": {"a|b": residual}, "tolerance": tol,
            "pass": passed, "diagnostics": {}}


def output(reports):
    return json.dumps({"reports": reports,
                       "all_pass": all(r["pass"] for r in reports)})


def sound_reports():
    reps = [report(f, a, z) for f in ("theta", "rhl") for a, z in GRID]
    reps.append(report("digamma", 0.5, 0j))
    reps.append(report("digamma", 2.0, 0j))
    reps.append(report("aux:one", 1.0, 0.5j, residual=1e-14))
    reps.append(report("aux:two", 1.0, 1.0, residual=0.0))
    reps[2]["residuals"]["a|b"] = 5e-4
    reps[2]["tolerance"] = 1e-3
    return reps


CELLS = check.expected_cells(("theta", "rhl", "digamma", "aux"), GRID)


def test_sound_output_passes():
    res = check.check_output(output(sound_reports()), 0, CELLS)
    assert res["problems"] == [] and res["failed"] == 0
    assert len(CELLS) == 7
    assert math.isclose(check.margin_digits(res["reports"]),
                        math.log10(1e-3 / 5e-4))


def test_flipped_pass_fails_its_cell():
    reps = sound_reports()
    reps[1]["pass"] = False
    res = check.check_output(output(reps), 1, CELLS)
    assert res["problems"] == [] and res["failed"] == 1
    # the CLI exits 0 only when every report passes
    res = check.check_output(output(reps), 0, CELLS)
    assert res["problems"] and res["failed"] == len(CELLS)


def test_error_diagnostic_fails_its_cell():
    reps = sound_reports()
    reps[0]["diagnostics"] = {"error": "quadrature: budget exhausted"}
    reps[0]["pass"] = False
    res = check.check_output(output(reps), 1, CELLS)
    assert res["failed"] == 1


def test_missing_cell_is_a_problem_and_a_failure():
    reps = sound_reports()
    del reps[3]
    res = check.check_output(output(reps), 0, CELLS)
    assert any("missing" in p for p in res["problems"])
    assert res["failed"] == 1


def test_doubled_and_unexpected_cells_are_problems():
    reps = sound_reports() + [copy.deepcopy(sound_reports()[0]),
                              report("theta", 1.0, 0j)]
    res = check.check_output(output(reps), 0, CELLS)
    assert len(res["problems"]) == 2


def test_unparseable_output_fails_every_cell():
    res = check.check_output('{"reports": [', 0, CELLS)
    assert res["problems"] and res["failed"] == len(CELLS)


def test_battery_has_126_cells():
    cells = check.expected_cells(run.BATTERY, run.DEFAULT_GRID)
    assert len(cells) == 20 * 6 + 5 + 1
