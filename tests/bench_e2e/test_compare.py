"""`compare` on hand-built result pairs."""

import json

from benchmarks.e2e import compare

BOUNDS = {
    "tx_per_s": ("higher", 0.10),
    "rtt_p50_ms": ("lower", 0.10),
}


def run(workload, tx, rtt, seed=1, failed=0, notes=None, traced=False):
    return {
        "workload": workload, "seed": seed, "traced": traced,
        "correct": True, "attempted": 1000, "failed": failed,
        "metrics": {
            "tx_per_s": {"value": tx, "unit": "1/s"},
            "rtt_p50_ms": {"value": rtt, "unit": "ms"},
        },
        "notes": notes or {},
    }


def verdicts(base, change):
    rows, flags = compare.compare({"runs": base}, {"runs": change}, BOUNDS)
    return {(r.workload, r.metric): r.verdict for r in rows}, flags


def test_same_better_and_worse_by_the_bound():
    base = [run("w", 1000.0, 2.0)]
    got, flags = verdicts(base, [run("w", 1050.0, 2.1)])
    assert got == {("w", "tx_per_s"): "same", ("w", "rtt_p50_ms"): "same"}
    assert not flags
    got, _ = verdicts(base, [run("w", 880.0, 1.7)])
    assert got[("w", "tx_per_s")] == "worse"       # 12 % fewer tx/s
    assert got[("w", "rtt_p50_ms")] == "better"    # 15 % lower RTT


def test_spread_wider_than_the_bound_is_unresolved_not_same():
    base = [run("w", v, 2.0, seed=i) for i, v in enumerate((900, 1000, 1150, 1020))]
    change = [run("w", v, 2.0, seed=i) for i, v in enumerate((950, 1080, 870, 1010))]
    got, _ = verdicts(base, change)
    assert got[("w", "tx_per_s")] == "unresolved"
    assert got[("w", "rtt_p50_ms")] == "same"
    # ... unless every run of one side beats every run of the other.
    faster = [run("w", v, 2.0, seed=i) for i, v in enumerate((1400, 1500, 1700, 1450))]
    got, _ = verdicts(base, faster)
    assert got[("w", "tx_per_s")] == "better"
    slower = [run("w", v, 2.0, seed=i) for i, v in enumerate((500, 600, 700, 650))]
    got, _ = verdicts(base, slower)
    assert got[("w", "tx_per_s")] == "worse"


def test_ratio_is_given_with_its_base():
    rows, _ = compare.compare(
        {"runs": [run("w", 1000.0, 2.0)]}, {"runs": [run("w", 1200.0, 2.0)]}, BOUNDS
    )
    row = rows[0]
    assert (row.base, row.value, round(row.ratio, 3)) == (1000.0, 1200.0, 1.2)
    text = compare.render(rows, [])
    assert "1.200x of base 1000" in text


def test_failed_share_rise_and_fingerprint_change_are_flagged():
    base = [run("sim", 1000.0, 2.0, notes={"sim.fingerprint": [10, 10, 1.5, 0, 70, 0]})]
    change = [run("sim", 1000.0, 2.0, failed=1,
                  notes={"sim.fingerprint": [10, 10, 1.6, 0, 70, 0]})]
    _, flags = verdicts(base, change)
    assert any(f.startswith("REGRESSION sim: failed_share rose") for f in flags)
    assert any("simulated behaviour changed" in f for f in flags)
    # Another seed's fingerprint is not comparable and not flagged.
    other_seed = [run("sim", 1000.0, 2.0, seed=2,
                      notes={"sim.fingerprint": [11, 11, 1.9, 0, 77, 0]})]
    assert verdicts(base, other_seed)[1] == []


def test_traced_runs_and_missing_workloads():
    base = [run("w", 1000.0, 2.0), run("w", 1.0, 99.0, traced=True), run("v", 1.0, 1.0)]
    got, flags = verdicts(base, [run("w", 1000.0, 2.0)])
    assert set(got) == {("w", "tx_per_s"), ("w", "rtt_p50_ms")}
    assert flags == ["v: missing from the second file"]


def test_exit_status_and_bounds_come_from_benchmark_json(tmp_path, capsys):
    declared = tmp_path / "BENCHMARK.json"
    declared.write_text(json.dumps({"end_to_end": [
        {"name": "tx_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "rtt_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]}))
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps({"runs": [run("w", 1000.0, 2.0)]}))
    b.write_text(json.dumps({"runs": [run("w", 1010.0, 2.0)]}))
    c.write_text(json.dumps({"runs": [run("w", 700.0, 2.0)]}))
    assert compare.main(str(a), str(b), str(declared)) == 0
    assert compare.main(str(a), str(c), str(declared)) == 1
    assert "worse" in capsys.readouterr().out


def test_a_runs_own_warnings_are_repeated_as_notes_not_regressions():
    noisy = [run("w", 1000.0, 2.0, notes={"warnings": ["cpu share 0.71"]})]
    _, flags = verdicts(noisy, [run("w", 1000.0, 2.0)])
    assert flags == ["note (base) w seed 1: cpu share 0.71"]
    rows, flags = compare.compare({"runs": noisy}, {"runs": noisy}, BOUNDS)
    assert not any(f.startswith("REGRESSION") for f in flags)
