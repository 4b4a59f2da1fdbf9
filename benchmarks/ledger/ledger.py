"""Running workloads and shaping their results.

Two result shapes leave this module:

- the **driver line** (`once`): one JSON object per run, exactly the
  metrics ``BENCHMARK.json`` lists -- the benchmark contract;
- the **ledger file** (`run` / `trace`): a versioned result set with
  several runs per workload, which ``compare`` reads.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.ledger import inputs, library, replica, served
from benchmarks.ledger.procs import ROOT

SCHEMA = 1

#: Workload name -> the module that measures and traces it.
MODULES = {
    "tc-closure": library,
    "view-materialise": library,
    "serve-read-hot": served,
    "serve-read-cold": served,
    "serve-rw-durable": served,
    "replica-catchup": replica,
}

#: Regression bound of the end-to-end metrics that only some workloads
#: have (``BENCHMARK.json`` holds the bounds of the ones all share).
#: One value, the contract's maximum: see the README ("Bounds") for the
#: measured run-to-run spreads behind it.
LEDGER_BOUND = 0.25

#: Metrics where more is better (everything else: lower is better).
HIGHER_IS_BETTER = {"ops_per_s"}


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: workload names, shared metrics, bounds
    (read once; callers only read it)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bound(metric: str) -> float:
    shared = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    return shared.get(metric, LEDGER_BOUND)


def scale_for(smoke: bool) -> inputs.Scale:
    return inputs.SMOKE if smoke else inputs.FULL


def measure(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One untraced run: end-to-end metrics, outputs checked."""
    result = MODULES[name].measure(name, scale_for(smoke), seed, seconds)
    return _finish(result)


def measure_isolated(name: str, seed: int, seconds: float,
                     smoke: bool) -> dict:
    """:func:`measure` in a fresh interpreter -- the contract's single
    run with ``--full``.  A result set is then N times exactly what the
    driver measures, and a library workload's ``VmHWM`` is its own
    rather than the high-water mark of whatever ran before it."""
    command = [sys.executable, str(Path(__file__).with_name("__main__.py")),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--full"]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{name} (seed {seed}) failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def trace(name: str, seed: int, seconds: float, smoke: bool,
          trace_out=None) -> dict:
    """One traced run: per-layer metrics, every name of
    ``BENCHMARK.json``'s ``per_layer`` present (0 where the layer did
    no work on this workload)."""
    result = MODULES[name].trace(name, scale_for(smoke), seed, seconds,
                                 trace_out)
    for metric in spec()["per_layer"]:
        result["metrics"].setdefault(metric["name"], (0, metric["unit"]))
    return _finish(result)


def _finish(result: dict) -> dict:
    result["metrics"] = {
        name: {"value": entry[0], "unit": entry[1],
               **({"samples": entry[2]} if len(entry) > 2 else {})}
        for name, entry in result["metrics"].items()}
    result["correct"] = result["failed"] == 0
    result["failed_share"] = result["failed"] / result["attempted"]
    return result


def driver_line(result: dict, listed: list[dict]) -> str:
    """The contract's last line: only the listed metrics, value+unit."""
    metrics = {}
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        metrics[metric["name"]] = {"value": entry["value"],
                                   "unit": entry["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# -- ledger files ------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def header(kind: str, seed: int, seconds: float, smoke: bool) -> dict:
    return {
        "schema": SCHEMA, "kind": kind, "smoke": smoke, "seed": seed,
        "seconds": seconds,
        # HEAD, and whether the tree differed from it (a checkout that
        # is not a git repository reads "unknown").
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_set(names: list[str], seed: int, seconds: float, runs: int,
            smoke: bool, progress=print, into: dict | None = None) -> dict:
    """``runs`` runs of each workload, seeds ``seed .. seed+runs-1``,
    interleaved so slow drift of the machine hits every workload alike.
    Each metric keeps the value of every run.

    ``into`` is an earlier result set to extend: alternating two files
    run by run (``--append``) puts both sides of a comparison through
    the same drift."""
    document = into or {**header("run", seed, seconds, smoke), "runs": 0,
                        "workloads": {}}
    document["runs"] += runs
    workloads: dict[str, dict] = document["workloads"]
    for run in range(runs):
        for name in names:
            result = measure_isolated(name, seed + run, seconds, smoke)
            slot = workloads.setdefault(name, {
                "attempted": 0, "failed": 0, "metrics": {}, "reported": {}})
            slot["attempted"] += result["attempted"]
            slot["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                kept = slot["metrics"].setdefault(
                    metric, {"unit": entry["unit"], "values": [],
                             "samples": []})
                kept["values"].append(entry["value"])
                kept["samples"].append(entry.get("samples", 1))
            for key, value in result["reported"].items():
                slot["reported"].setdefault(key, []).append(value)
            progress(f"run {run + 1}/{runs} {name}: "
                     + ", ".join(f"{m}={e['value']:.4g}{e['unit']}"
                                 for m, e in result["metrics"].items())
                     + f", failed={result['failed']}/{result['attempted']}")
    for slot in workloads.values():
        slot["failed_share"] = slot["failed"] / slot["attempted"]
    return document


def trace_set(names: list[str], seed: int, seconds: float, smoke: bool,
              trace_dir=None, progress=print) -> dict:
    document = header("trace", seed, seconds, smoke)
    workloads = {}
    for name in names:
        out = None
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            out = os.path.join(trace_dir, f"{name}.spans.jsonl")
        workloads[name] = trace(name, seed, seconds, smoke, out)
        progress(f"traced {name}")
    document["workloads"] = workloads
    return document


def render_trace(document: dict) -> str:
    """The per-layer summary as markdown, one table per workload."""
    lines = [f"# Trace summary (seed {document['seed']}, "
             f"git {document['git_sha'][:12]}, smoke={document['smoke']})",
             ""]
    for name, result in document["workloads"].items():
        split = result["split"]
        lines += [f"## {name}", "",
                  f"Traced end-to-end time {split['traced_ms']:.1f} ms; "
                  f"layer self times cover "
                  f"{split['covered_share']:.1%} of it "
                  f"(unattributed harness glue "
                  f"{split['unattributed_ms']:.1f} ms).  "
                  f"Median op untraced {result['untraced_op_ms']:.3f} ms, "
                  f"traced {result['traced_op_ms']:.3f} ms: "
                  f"`trace_overhead_share` = "
                  f"{result['metrics']['trace_overhead_share']['value']:+.3f}.",
                  "", "| layer | self ms | share |", "|---|---:|---:|"]
        for layer, self_ms in split["layers"].items():
            share = self_ms / split["traced_ms"] if split["traced_ms"] else 0
            lines.append(f"| `{layer}` | {self_ms:.1f} | {share:.1%} |")
        if "served" in split:
            side = split["served"]
            lines += ["", f"Served phase ({side['requests']} requests): "
                      f"client RTT p50 {side['rtt_p50_ms']:.3f} ms = "
                      f"`server.wire_ms` "
                      f"{side['rtt_p50_ms'] - side['elapsed_p50_ms']:.3f} + "
                      f"`server.gate_hop_ms` "
                      f"{side['elapsed_p50_ms'] - side['in_process_p50_ms']:.3f}"
                      f" + in-process `Query.all` + boxing "
                      f"{side['in_process_p50_ms']:.3f}."]
        lines += ["", "| span | calls | total ms | self ms |",
                  "|---|---:|---:|---:|"]
        for row in result["table"]:
            lines.append(f"| `{row['span']}` | {row['calls']} | "
                         f"{row['total_ms']:.1f} | {row['self_ms']:.1f} |")
        lines += ["", "| per-layer metric | value | unit |", "|---|---:|---|"]
        for metric, entry in result["metrics"].items():
            if entry["value"]:
                lines.append(f"| `{metric}` | {entry['value']:.6g} | "
                             f"{entry['unit']} |")
        lines.append("")
    return "\n".join(lines)
