"""Evaluation statistics: what the engine did and how hard it worked."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field


def gc_collections() -> list[int]:
    """Cyclic-collector passes so far, per generation (process-wide)."""
    return [generation["collections"] for generation in gc.get_stats()]


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
    #: Cyclic-collector passes per generation (0, 1, 2) that ran while
    #: ``run()`` did, from ``gc.get_stats()`` at entry and exit.  The
    #: collector is process-wide: passes triggered by other threads'
    #: allocations in that window count too, and a pass triggered by
    #: the run also scans objects that are not the run's.
    gc_passes: tuple[int, int, int] = (0, 0, 0)
    #: Whether semi-naive iteration was used.
    seminaive: bool = True
    #: Join plans built by the cost-based planner (plan-cache misses).
    #: Like every counter below that names delta positions, it counts
    #: only the positions a semi-naive round actually seeded.
    plans_built: int = 0
    #: Body evaluations (seeded delta positions too) reusing a plan.
    plan_cache_hits: int = 0
    #: Plans lowered to columnar kernels (bodies + seeded positions);
    #: 0 for an ``interpreted=True`` run.
    plans_compiled: int = 0
    #: Per-step extensions (tuples) observed while executing rule plans;
    #: the per-kernel row counters summed over the run.  Defined the
    #: same way for the columnar executor and the interpreted oracle.
    tuples: int = 0
    #: Columnar executions performed: one per rule firing or seeded
    #: delta position, plus one per goal-directed existence check (0 for
    #: an interpreted run).  A maintainer counts these, and the other
    #: work counters, into its own evaluation's stats.
    batches: int = 0
    #: Solution rows those columnar executions produced (for an
    #: existence check, the rows it pushed before stopping).
    batch_rows: int = 0
    #: Plans (rule bodies + seeded delta positions) whose solution
    #: batches are realised set-at-a-time: by the int writer or a
    #: compiled column head program.
    heads_compiled: int = 0
    #: Plans whose batches still go row by row through
    #: ``HeadRealizer.realize`` (a head variable the plan does not
    #: bind).  The ``interpreted=True`` oracle compiles no plans.
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
    #: Facts removed by the overdelete pass.
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

    def count_derived(self, delta) -> None:
        """Tally one round's new facts
        (a :class:`~repro.engine.delta.DeltaIndex`) without boxing them."""
        counts = delta.counts()
        self.derived_scalar += counts["scalar"]
        self.derived_set += counts["set"]
        self.derived_isa += counts["isa"]

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
            "gc-passes": "/".join(map(str, self.gc_passes)),
            "seconds": round(self.elapsed_s, 4),
        }
