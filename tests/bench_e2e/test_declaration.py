"""BENCHMARK.json is well-formed and says what benchmarks/e2e/spec.py says."""

import json
import os
import re

from benchmarks.e2e import spec

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_top_level_keys_and_limits():
    d = declared()
    assert set(d) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert 2 <= len(d["workloads"]) <= 8
    assert 1 <= len(d["end_to_end"]) <= 16
    assert 1 <= len(d["per_layer"]) <= 128
    assert isinstance(d["run_seconds"], int) and 1 <= d["run_seconds"] <= 60
    # 4 + 22 runs per workload, with set-up, must fit the driver's cap.
    runs = 4 + 22 * len(d["workloads"])
    assert runs * (d["run_seconds"] + 8) < 3420


def test_names_units_and_bounds_are_well_formed():
    d = declared()
    names = (
        [w["name"] for w in d["workloads"]]
        + [m["name"] for m in d["end_to_end"]]
        + [m["name"] for m in d["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for w in d["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in d["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in d["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in d["end_to_end"] + d["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in d["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in d["end_to_end"])


def test_command_and_paths_stay_inside_the_benchmark():
    d = declared()
    assert d["paths"] == ["benchmarks/e2e", "tests/bench_e2e"]
    for path in d["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))
    script = d["command"][1]
    assert any(script.startswith(path + "/") for path in d["paths"])
    assert os.path.isfile(os.path.join(ROOT, script))


def test_json_matches_the_spec_module():
    d = declared()
    assert [(w["name"], w["why"]) for w in d["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in d["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in d["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]


def test_every_layer_row_names_what_it_should_move():
    end_to_end = {m.name for m in spec.END_TO_END}
    for row in spec.PER_LAYER:
        assert row.moves, f"{row.name} predicts nothing"
        for metric, workload in row.moves:
            assert metric in end_to_end, (row.name, metric)
            assert workload in spec.WORKLOADS_BY_NAME, (row.name, workload)
