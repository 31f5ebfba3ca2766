import json
import os
import subprocess
import sys

import layers
import tracing
from conftest import BENCH, ROOT


def span(name, start, end, parent, cell=-1, points=0):
    return [name, start, end, parent, cell, points, None, None]


def test_self_time_subtracts_direct_children_only():
    spans = [span("a.root", 0.0, 10.0, -1),
             span("b.left", 1.0, 4.0, 0),
             span("c.inner", 2.0, 3.0, 1),
             span("b.right", 5.0, 7.0, 0)]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_times_sum_to_root_duration():
    spans = [span("a.root", 0.0, 8.0, -1), span("b.x", 0.5, 2.0, 0),
             span("b.y", 1.0, 1.25, 1), span("c.z", 3.0, 7.5, 0),
             span("c.w", 4.0, 5.0, 3), span("c.w", 5.0, 6.0, 3)]
    assert sum(tracing.self_times(spans)) == 8.0


def test_overlapping_children_are_not_subtracted_twice():
    spans = [span("a.root", 0.0, 10.0, -1), span("b.x", -1.0, 2.0, 0),
             span("b.y", 1.0, 3.0, 0), span("b.z", 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == 10.0 - 3.0 - 1.0


def test_wrap_records_parents_cells_and_points():
    tr = tracing.Tracer()
    leaf = tr.wrap("specfun.leaf", lambda x: x)
    cell = tr.wrap(tracing.CELL_SPAN, lambda n: [leaf([1.0] * n)
                                                 for _ in range(2)])
    top = tr.wrap("cli.main", lambda: (cell(3), cell(4)))
    top()
    names = [s[0] for s in tr.spans]
    assert names == ["cli.main", tracing.CELL_SPAN, "specfun.leaf",
                     "specfun.leaf", tracing.CELL_SPAN, "specfun.leaf",
                     "specfun.leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1, 0, 4, 4]
    assert [s[4] for s in tr.spans] == [-1, 0, 0, 0, 1, 1, 1]
    assert [s[5] for s in tr.spans][2:4] == [0, 0]  # lists are not numeric
    assert all(s[2] >= s[1] for s in tr.spans)


def test_group_points_count_outermost_calls_only():
    spans = [span("specfun.zeta", 0.0, 4.0, -1, points=5),
             span("specfun.zeta_eta", 1.0, 3.0, 0, points=5),
             span("specfun.zeta_eta", 5.0, 6.0, -1, points=2)]
    m = layers.span_metrics(spans)
    assert m["specfun.zeta.points"] == 7
    assert m["specfun.zeta.self_s"] == 5.0
    assert m["specfun.self_s"] == 5.0


def test_traced_child_sees_calls_through_every_binding(tmp_path):
    spec = {"src": os.path.join(ROOT, "src"), "trace": "all",
            "argvs": [["--identity", "theta", "--alpha", "2", "--z", "1",
                       "--out", str(tmp_path / "out.json")]],
            "spans": str(tmp_path / "spans.json"),
            "record": str(tmp_path / "record.json")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, os.path.join(BENCH, "child.py"),
                    str(spec_path)], check=True, timeout=120)
    record = json.loads((tmp_path / "record.json").read_text())
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert record["codes"] == [0]
    names = {s[0] for s in spans}
    # xi_cap is reached through identities' own binding of the name
    assert {"cli.main", "cli._run_task", "identities.verify_theta",
            "identities.xi_truncation_point", "xikernel.xi_cap",
            "specfun.zeta", "quad.integrate_semi_infinite"} <= names
    theta = [i for i, s in enumerate(spans)
             if s[0] == "identities.verify_theta"]
    assert len(theta) == 1 and spans[spans[theta[0]][3]][0] == "cli._run_task"
    m = layers.span_metrics(spans)
    assert m["identities.theta.calls"] == 1
    assert m["quad.calls"] == 1 and m["quad.evals"] > 0
    accounted = sum(m[k] for k in layers.SELF_KEYS)
    main = [s for s in spans if s[0] == "cli.main"][0]
    assert abs(accounted - (main[2] - main[1])) < 1e-9
