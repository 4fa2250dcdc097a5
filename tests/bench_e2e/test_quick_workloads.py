"""Every workload runs in --quick mode and emits every declared metric."""

import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import spec
from benchmarks.e2e.runner import run_workload

pytestmark = pytest.mark.live

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run_workload(workload, seed=3, seconds=0.15, traced=False, quick=True)
    assert not result.traced and result.correct
    assert list(result.metrics) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        value, unit = result.metrics[metric.name]
        assert unit == metric.unit
        assert value > 0, f"{metric.name} must never read 0"
    assert result.attempted >= 1
    if not spec.WORKLOADS_BY_NAME[workload].loss_rate:
        assert result.failed == 0


@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path, monkeypatch):
    monkeypatch.setattr("benchmarks.e2e.live.OUT_DIR", str(tmp_path))
    result = run_workload(workload, seed=3, seconds=0.3, traced=True, quick=True)
    assert result.traced and result.correct
    assert list(result.metrics) == [m.name for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        assert result.metrics[metric.name][1] == metric.unit
    value = {name: v for name, (v, _unit) in result.metrics.items()}
    assert result.tables, "a traced run prints its ledger"
    if spec.WORKLOADS_BY_NAME[workload].kind == "sim":
        shares = [v for name, v in value.items() if name.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0)
        assert value["sim.events_per_tx"] > 0
        assert value["calls.exact_repeat"] == 1.0
        assert len(result.notes["sim.fingerprint"]) == 6
        return
    spans = (tmp_path / f"trace_{workload}.ndjson").read_text().splitlines()
    assert len(spans) == result.notes["spans"] > 0
    name, start, end, parent, tx = json.loads(spans[0])
    assert isinstance(name, str) and end >= start and parent >= -1 and tx >= -1
    assert 0.0 < value["loop.residual_share"] < 1.0
    assert value["dataplane.decides_per_tx"] > 0
    if workload == "live_small_seq" and not result.notes["tx_retries_per_tx"]:
        # Route-determined counts: 4 hops each way, 3 of them routers
        # (a transaction that timed out on a stalled box adds a probe).
        assert value["live.link.data_frames_per_tx"] == 8
        assert value["live.router.forwarded_per_tx"] == 6
        assert value["live.link.rx_batch_fill"] == pytest.approx(1.0, abs=0.2)
    if workload == "live_cold_flows":
        assert value["dataplane.flow_cache_hit_ratio"] < 0.6
        assert value["tokens.cache_miss_ratio"] > 0
        assert value["directory.query_us"] > 0
        assert value["live.directory.routes_us"] > 0


def test_sim_fingerprint_is_the_same_traced_and_untraced():
    plain = run_workload("sim_random_mix", 5, 0.1, traced=False, quick=True)
    traced = run_workload("sim_random_mix", 5, 0.1, traced=True, quick=True)
    assert plain.notes["sim.fingerprint"] == traced.notes["sim.fingerprint"]
    other = run_workload("sim_random_mix", 6, 0.1, traced=False, quick=True)
    assert other.notes["sim.fingerprint"] != plain.notes["sim.fingerprint"]


def test_driver_command_prints_the_contract_line_last():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    process = subprocess.run(
        [sys.executable, *declared["command"][1:], "--workload", "live_small_seq",
         "--seed", "2", "--seconds", "0.2", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert process.returncode == 0, process.stderr
    line = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for entry in line["metrics"].values():
        assert set(entry) == {"value", "unit"}
