"""The two library workloads: ``tc-closure`` and ``view-materialise``.

Both call the same public entry point -- ``Engine(db, rules).run()`` --
on inputs that take different paths through it: the closure runs on the
int-columnar kernels with set-at-a-time head emission, the views go
through isa steps, the boxed per-slot fallback, and per-binding
virtual-object realisation in ``engine.heads``.

One *op* is one evaluation of every input of the workload (the closure
pair, or the two views in one program).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable

import networkx as nx

from repro import Database, Engine, parse_program
from repro.datasets.genealogy import desc_rules
from repro.oodb import serialize

from benchmarks.ledger import inputs
from benchmarks.ledger.procs import own_peak_rss_mb
from benchmarks.ledger.stats import latency_summary, median
from benchmarks.ledger.tracing import Tracer, span_of, summarise

#: Fewest measured repeats, however short ``--seconds`` is.
MIN_REPEATS = 3


@dataclass
class Library:
    """One library workload: how to build it, and how to check it."""

    #: ``(scale, seed) -> state`` -- dataset build and rule parsing.
    prepare: Callable
    #: ``state -> [(label, db, rules)]`` -- the evaluations of one op.
    jobs: Callable
    #: ``(state, label, engine, out) -> bool`` -- cheap, every repeat.
    quick_check: Callable
    #: ``(state, label, out) -> bool`` -- against the reference, once.
    deep_check: Callable


def count_facts(db: Database) -> int:
    """Base facts of ``db`` (isa edges, scalar results, set members)."""
    encoded = serialize.to_dict(db)
    return (len(encoded["isa"]) + len(encoded["scalars"])
            + sum(len(row[3]) for row in encoded["sets"]))


# -- tc-closure --------------------------------------------------------


def _closure_prepare(scale, seed):
    return {"families": inputs.closure_inputs(scale, seed),
            "rules": desc_rules()}


def _closure_jobs(state):
    return [(label, db, state["rules"])
            for label, (db, _) in state["families"].items()]


def _closure_size(label: str, graph: nx.DiGraph) -> int:
    nodes = graph.number_of_nodes()
    return nodes * (nodes - 1) // 2 if label == "chain" else nodes * nodes


def _closure_quick(state, label, engine, out) -> bool:
    graph = state["families"][label][1]
    return (engine.stats.derived_total == _closure_size(label, graph)
            and engine.stats.virtuals_created == 0)


def _closure_deep(state, label, out) -> bool:
    """The engine's ``desc`` sets equal networkx reachability."""
    graph = state["families"][label][1]
    desc = out.obj("desc")
    for node in graph.nodes():
        reach = nx.descendants(graph, node)
        if any(pred == node or pred in reach
               for pred in graph.predecessors(node)):
            reach.add(node)  # on a cycle: the node reaches itself
        got = {str(oid) for oid in out.set_apply(desc, out.obj(node), ())}
        if got != reach:
            return False
    return True


# -- view-materialise --------------------------------------------------


def _view_prepare(scale, seed):
    return {"db": inputs.view_company(scale, seed),
            "rules": parse_program(inputs.VIEW_RULES),
            "employees": scale.view_employees}


def _view_jobs(state):
    return [("views", state["db"], state["rules"])]


def _view_quick(state, label, engine, out) -> bool:
    # One virtual per qualifying object: every employee is a person
    # with street and city (address) and has worksFor (empBoss).
    return (engine.stats.virtuals_created == 2 * state["employees"]
            and out.virtual_count() == 2 * state["employees"])


def _view_deep(state, label, out) -> bool:
    """Each employee's two virtuals carry exactly the source values."""
    from repro import Query

    base, derived = Query(state["db"]), Query(out)
    source = {str(row.value("X")): (row.value("S"), row.value("C"),
                                    row.value("D"))
              for row in base.all(
                  "X : employee[street -> S; city -> C; worksFor -> D]")}
    view = {str(row.value("X")): (row.value("S"), row.value("C"),
                                  row.value("D"))
            for row in derived.all(
                "X : employee, X.address[street -> S; city -> C], "
                "X.empBoss[worksFor -> D]")}
    return len(source) == state["employees"] and view == source


WORKLOADS = {
    "tc-closure": Library(_closure_prepare, _closure_jobs,
                          _closure_quick, _closure_deep),
    "view-materialise": Library(_view_prepare, _view_jobs,
                                _view_quick, _view_deep),
}


# -- running -----------------------------------------------------------


def _evaluate(workload: Library, state, tracer: Tracer | None = None):
    """One op.  Returns ``(seconds, [(label, engine, out)])``; the timed
    region ends before any result is read back."""
    runs = []
    started = time.perf_counter()
    for label, db, rules in workload.jobs(state):
        engine = Engine(db, rules)
        runs.append((label, engine, engine.run()))
    elapsed = time.perf_counter() - started
    if tracer is not None:
        # The first boxed read after a columnar run back-fills the
        # boxed tables from the int mirrors: a cost every consumer of
        # the result pays once, so it is timed as its own layer.
        with tracer.span("oodb.database:mirror_drain"):
            for _, _, out in runs:
                out.scalars.sync()
                out.sets.sync()
    return elapsed, runs


def _setup(workload: Library, scale, seed):
    """Dataset build + first fixpoint, timed as ``setup_s``."""
    started = time.perf_counter()
    state = workload.prepare(scale, seed)
    _evaluate(workload, state)
    return state, time.perf_counter() - started


def _op(workload: Library, state, last: list,
        tracer: Tracer | None = None) -> float:
    """One measured op; ``last`` receives its runs.

    The previous op's results are dropped and collected first, so every
    op starts from the same heap: a result left alive would make the
    collector's full passes scan its ~600k facts during the next op.
    """
    last.clear()
    gc.collect()
    with span_of(tracer, "harness:op"):
        elapsed, runs = _evaluate(workload, state, tracer)
    last.extend(runs)
    return elapsed


def _repeat(seconds: float, each: Callable) -> None:
    """Run ops until ``seconds`` passed (and at least MIN_REPEATS)."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_REPEATS or time.perf_counter() < deadline:
        each()
        done += 1


def measure(name: str, scale, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    setups = []
    for _ in range(scale.setup_repeats):
        state, setup_s = _setup(workload, scale, seed)
        setups.append(setup_s)
    samples_s: list[float] = []
    failed = 0
    last: list = []

    def one():
        nonlocal failed
        samples_s.append(_op(workload, state, last))
        if not all(workload.quick_check(state, *run) for run in last):
            failed += 1

    _repeat(seconds, one)
    peak_rss = own_peak_rss_mb()  # before the reference is computed
    deep_ok = all(workload.deep_check(state, label, out)
                  for label, _, out in last)
    if not deep_ok:
        failed = max(failed, 1)
    summary = latency_summary([s * 1000.0 for s in samples_s])
    return {
        "attempted": len(samples_s),
        "failed": failed,
        "metrics": {
            "setup_s": (median(setups), "s", len(setups)),
            "eval_p50_s": (median(samples_s), "s", len(samples_s)),
            "op_p50_ms": (summary["p50"], "ms", len(samples_s)),
            "ops_per_s": (len(samples_s) / sum(samples_s), "1/s",
                          len(samples_s)),
            "peak_rss_mb": (peak_rss, "MiB", 1),
        },
        "reported": {
            "op_p95_ms": summary["p95"], "op_max_ms": summary["max"],
            "derived_per_op": sum(engine.stats.derived_total
                                  for _, engine, _ in last),
        },
    }


def trace(name: str, scale, seed: int, seconds: float,
          trace_out=None) -> dict:
    """Untraced repeats, then traced repeats of the same op."""
    workload = WORKLOADS[name]
    build_started = time.perf_counter()
    state = workload.prepare(scale, seed)
    build_s = time.perf_counter() - build_started
    facts = sum(count_facts(db) for _, db, _ in workload.jobs(state))
    _evaluate(workload, state)

    last: list = []
    plain: list[float] = []
    _repeat(seconds / 3, lambda: plain.append(_op(workload, state, last)))

    tracer = Tracer()
    traced: list[float] = []
    failed = 0

    def one():
        nonlocal failed
        traced.append(_op(workload, state, last, tracer))
        if not all(workload.quick_check(state, *run) for run in last):
            failed += 1

    with tracer.installed():
        _repeat(seconds / 3, one)
    if trace_out is not None:
        tracer.dump(trace_out)

    engines = [engine.stats for _, engine, _ in last]
    derived = sum(s.derived_total for s in engines)
    firings = sum(s.firings for s in engines)
    virtuals = sum(s.virtuals_created for s in engines)
    realize_ms = tracer.total_ms("engine.heads:HeadRealizer.realize")
    table = tracer.table()
    return {
        "attempted": len(traced),
        "failed": failed,
        "metrics": {
            "engine.fixpoint.run_s": (sum(s.elapsed_s for s in engines), "s"),
            "engine.fixpoint.derived": (derived, "count"),
            "engine.fixpoint.firings": (firings, "count"),
            "engine.fixpoint.tuples": (sum(s.tuples for s in engines),
                                       "count"),
            "engine.fixpoint.derived_per_firing": (
                derived / firings if firings else 0.0, "ratio"),
            "engine.fixpoint.plans_built": (
                sum(s.plans_built for s in engines), "count"),
            "engine.heads.virtuals_created": (virtuals, "count"),
            "engine.heads.us_per_virtual": (
                realize_ms * 1000.0 / (virtuals * len(traced))
                if virtuals else 0.0, "us"),
            "oodb.database.assert_us": (build_s * 1e6 / facts, "us"),
            "oodb.database.mirror_drain_ms": (
                median(tracer.durations_ms("oodb.database:mirror_drain")),
                "ms"),
            "trace_overhead_share": (
                median(traced) / median(plain) - 1.0, "ratio"),
        },
        "table": table,
        "split": summarise(table),
        "untraced_op_ms": median(plain) * 1000.0,
        "traced_op_ms": median(traced) * 1000.0,
    }
