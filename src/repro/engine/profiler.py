"""Evaluation statistics: what the engine did and how hard it worked."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineStats:
    """Counters filled in by one :meth:`repro.engine.Engine.run`."""

    #: Number of evaluation strata.
    strata: int = 0
    #: Fixpoint iterations per stratum, in evaluation order.
    iterations: list[int] = field(default_factory=list)
    #: Body solutions found (head realisations attempted).
    firings: int = 0
    #: Newly derived primitives by kind.
    derived_scalar: int = 0
    derived_set: int = 0
    derived_isa: int = 0
    #: Virtual objects created.
    virtuals_created: int = 0
    #: Wall-clock time of the whole ``run()`` call in seconds, from
    #: entry (snapshot included) to return.
    elapsed_s: float = 0.0
    #: The part of ``elapsed_s`` spent before the first stratum starts:
    #: cloning the input, its catalog, and its int mirrors.
    snapshot_s: float = 0.0
    #: Copy-on-write copies the run made in its snapshot: shared index
    #: buckets, mirror slices, the class hierarchy -- what the run paid
    #: for the database it *wrote to* (the snapshot itself costs the
    #: same whatever it holds).  Boxed back-fills of mirror-first
    #: inserts are lazy; the copies they make after the run returns
    #: show in ``Database.buckets_copied`` of the result instead.
    buckets_copied: int = 0
    #: Whether semi-naive iteration was used.
    seminaive: bool = True
    #: Join plans built by the cost-based planner (plan-cache misses).
    #: Like every counter below that names delta positions, it counts
    #: only the positions a semi-naive round actually seeded.
    plans_built: int = 0
    #: Body evaluations (seeded delta positions too) reusing a plan.
    plan_cache_hits: int = 0
    #: Plans lowered to slot/kernel form (bodies + seeded positions).
    plans_compiled: int = 0
    #: Per-step extensions (tuples) observed while executing rule plans;
    #: the per-kernel row counters summed over the run.  Comparable
    #: across the batch, compiled, and interpreted executors.
    tuples: int = 0
    #: Batched executions performed (one per rule firing or seeded
    #: delta position pushed through the set-at-a-time executor).
    batches: int = 0
    #: Solution rows those batched executions produced.
    batch_rows: int = 0
    #: Plans (rule bodies + seeded delta positions) whose solution
    #: batches are realised set-at-a-time: by a simple-head emitter or a
    #: compiled column head program.
    heads_compiled: int = 0
    #: Plans whose batches still go row by row through
    #: ``HeadRealizer.realize`` (support-tracked rules).
    heads_fallback: int = 0
    #: Magic seed facts asserted for a demand-driven run (0 = full run).
    magic_seeds: int = 0
    #: Rule variants guarded by magic atoms in the evaluated program.
    rules_rewritten: int = 0
    #: Rules kept on full evaluation by the magic rewrite (with reasons
    #: recorded in the rewrite itself).
    rules_fallback: int = 0
    #: Incremental maintenance runs applied to this engine's result.
    maintenance_runs: int = 0
    #: Facts removed by the overdelete / counting deletion passes.
    facts_overdeleted: int = 0
    #: Overdeleted facts the rederive pass re-asserted.
    facts_rederived: int = 0
    #: Facts derived by maintenance insertion passes.
    facts_reinserted: int = 0
    #: Memoised result databases evicted from the query-level LRU.
    memo_evictions: int = 0
    #: Cooperative budget checkpoints evaluated (0 without a budget).
    budget_checks: int = 0
    #: Where a budget stop interrupted evaluation (site, stratum,
    #: iteration, rule), or None when the run completed.
    stopped_at: str | None = None

    @property
    def derived_total(self) -> int:
        """All newly derived primitives."""
        return self.derived_scalar + self.derived_set + self.derived_isa

    def count_derived(self, entries) -> None:
        """Tally a batch of realizer log entries."""
        for entry in entries:
            kind = entry[0]
            if kind == "scalar":
                self.derived_scalar += 1
            elif kind == "set":
                self.derived_set += 1
            else:
                self.derived_isa += 1

    def as_row(self) -> dict[str, object]:
        """Dict form for tabular bench output."""
        return {
            "strata": self.strata,
            "iters": sum(self.iterations),
            "firings": self.firings,
            "derived": self.derived_total,
            "virtuals": self.virtuals_created,
            "plans": self.plans_built,
            "plan-hits": self.plan_cache_hits,
            "kernels": self.plans_compiled,
            "tuples": self.tuples,
            "batches": self.batches,
            "batch_rows": self.batch_rows,
            "heads-compiled": self.heads_compiled,
            "heads-fallback": self.heads_fallback,
            "magic-seeds": self.magic_seeds,
            "rules-rewritten": self.rules_rewritten,
            "rules-fallback": self.rules_fallback,
            "maintenance": self.maintenance_runs,
            "overdeleted": self.facts_overdeleted,
            "rederived": self.facts_rederived,
            "reinserted": self.facts_reinserted,
            "evictions": self.memo_evictions,
            "budget-checks": self.budget_checks,
            "stopped-at": self.stopped_at or "-",
            "snapshot-s": round(self.snapshot_s, 4),
            "buckets-copied": self.buckets_copied,
            "seconds": round(self.elapsed_s, 4),
        }
