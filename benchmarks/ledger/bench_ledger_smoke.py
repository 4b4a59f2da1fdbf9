"""Smoke test of the ledger: every workload end to end at tiny sizes.

Run it by name (the file name keeps it out of tier-1 collection, like
the ``bench_e_*.py`` gates)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/bench_ledger_smoke.py -q

It asserts the result schema and that every workload and metric name in
``BENCHMARK.json`` is emitted -- by the contract's single run and by the
ledger's own ``run`` -- and that ``compare`` refuses smoke results.
"""

import json
import subprocess
import sys

import pytest

from benchmarks.ledger import compare, ledger
from benchmarks.ledger.procs import ROOT

SPEC = ledger.spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The end-to-end metrics the issue names per workload, beyond the ones
#: every workload shares.
OWN_METRICS = {
    "tc-closure": {"eval_p50_s"},
    "view-materialise": {"eval_p50_s"},
    "serve-read-hot": {"query_p50_ms", "query_p95_ms"},
    "serve-read-cold": {"query_p50_ms", "query_p95_ms"},
    "serve-rw-durable": {"query_p50_ms", "query_p95_ms", "write_p50_ms",
                         "write_p95_ms", "recover_s"},
    "replica-catchup": {"catchup_s"},
}


def test_spec_names_the_six_workloads():
    assert WORKLOADS == list(ledger.MODULES)
    assert set(OWN_METRICS) == set(WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.fixture(scope="module")
def smoke_set():
    return ledger.run_set(WORKLOADS, seed=11, seconds=0.5, runs=1,
                          smoke=True, progress=lambda line: None)


def test_run_set_schema(smoke_set):
    for key in ("schema", "kind", "smoke", "seed", "git_sha", "git_dirty",
                "nproc", "python", "runs", "workloads"):
        assert key in smoke_set
    assert smoke_set["schema"] == ledger.SCHEMA
    assert smoke_set["smoke"] is True
    assert list(smoke_set["workloads"]) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_end_to_end_name_is_emitted(smoke_set, name):
    slot = smoke_set["workloads"][name]
    shared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(slot["metrics"]) == set(shared) | OWN_METRICS[name]
    for metric, entry in slot["metrics"].items():
        assert entry["values"] and all(v > 0 for v in entry["values"])
        assert len(entry["samples"]) == len(entry["values"])
        assert 0 < ledger.bound(metric) <= 0.25
        if metric in shared:
            assert entry["unit"] == shared[metric]
    assert slot["failed"] == 0 and slot["failed_share"] == 0.0
    assert slot["attempted"] >= 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_per_layer_name_is_emitted(name):
    result = ledger.trace(name, seed=11, seconds=0.5, smoke=True)
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(listed)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == listed[metric], metric
    assert result["failed"] == 0
    split = result["split"]
    assert split["traced_ms"] > 0
    # Layer self times account for the traced end-to-end time.
    assert split["covered_share"] >= 0.85
    assert "trace_overhead_share" in result["metrics"]


def test_contract_line(tmp_path):
    """The command of BENCHMARK.json prints the contract's last line."""
    for flag, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        done = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload",
             "serve-read-hot", "--seed", "5", "--seconds", "1",
             "--trace", flag, "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in listed}
        for entry in line["metrics"].values():
            assert set(entry) == {"value", "unit"}


def test_compare_refuses_smoke_results(smoke_set, tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(smoke_set))
    with pytest.raises(compare.Refused):
        compare.load(path)
    lines = []
    assert compare.main(path, path, out=lines.append) == 2


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict("op_p50_ms", steady, steady, 0.10) == "same"
    slower = [v * 1.2 for v in steady]
    assert compare.verdict("op_p50_ms", steady, slower, 0.10) == "worse"
    assert compare.verdict("op_p50_ms", slower, steady, 0.10) == "better"
    assert compare.verdict("ops_per_s", steady, slower, 0.10) == "better"
    noisy = [60.0, 100.0, 140.0, 90.0, 120.0]
    assert compare.verdict("op_p50_ms", steady, noisy, 0.10) == "unresolved"
