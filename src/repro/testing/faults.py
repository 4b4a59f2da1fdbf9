"""Deterministic, site-addressable fault injection.

The engine plants named :func:`fault_point` markers at the places where
a partial failure would be most damaging -- head emission, the
columnar kernel step loops (existence checks included), each
maintenance phase, change-log replay.  With no plan installed (the production state) a marker is a
near-no-op: one module-global load and a ``None`` test.  Tests install
a :class:`FaultPlan` through one of the context managers and every
marker reports to it; the plan decides, deterministically, whether to
raise an :class:`InjectedFault` there.

Two addressing modes:

- **Targeted** (:func:`inject`): raise at the *nth* hit of one named
  site.  Used to prove exact rollback at a specific phase
  ("the overdelete pass died halfway").
- **Seeded-random** (:func:`inject_random`): a ``random.Random(seed)``
  draws per hit against a rate, optionally restricted to a site set.
  The same seed replays the same fault schedule, so Hypothesis can
  shrink over seeds -- this drives the fault property suite.

:func:`observe` installs a counting-only plan (never raises), which
tests use to discover which sites a scenario actually crosses.

:class:`InjectedFault` deliberately derives from :class:`RuntimeError`,
*not* :class:`~repro.errors.PathLogError`: an injected crash must model
an arbitrary unexpected failure, and the library's own ``except
PathLogError`` handlers must not swallow it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterable, Iterator

#: The installed plan; None (the default) disables every fault point.
_PLAN: "FaultPlan | None" = None


class InjectedFault(RuntimeError):
    """The failure a firing fault point raises.

    Carries the ``site`` name and the 1-based ``hit`` index at which it
    fired, so tests can assert *where* the evaluation was interrupted.
    """

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"injected fault at {site} (hit {hit})")
        self.site = site
        self.hit = hit


def fault_point(site: str) -> None:
    """Mark an injectable site; a no-op unless a plan is installed."""
    if _PLAN is None:
        return
    _PLAN.hit(site)


class FaultPlan:
    """Decides which :func:`fault_point` hits raise.

    ``counts`` maps each site to how many times it was crossed while
    this plan was installed (maintained even in counting-only mode).
    """

    __slots__ = ("counts", "_site", "_nth", "_rng", "_rate", "_sites",
                 "_armed")

    def __init__(self, *, site: str | None = None, nth: int = 1,
                 seed: int | None = None, rate: float = 0.0,
                 sites: Iterable[str] | None = None,
                 armed: bool = True) -> None:
        self.counts: dict[str, int] = {}
        self._site = site
        self._nth = nth
        self._rng = random.Random(seed) if seed is not None else None
        self._rate = rate
        self._sites = frozenset(sites) if sites is not None else None
        self._armed = armed

    def hit(self, site: str) -> None:
        count = self.counts.get(site, 0) + 1
        self.counts[site] = count
        if not self._armed:
            return
        if self._site is not None:
            if site == self._site and count == self._nth:
                raise InjectedFault(site, count)
            return
        if self._rng is None:
            return
        if self._sites is not None and site not in self._sites:
            return
        # One deterministic draw per hit: the same seed over the same
        # execution crosses the same sites in the same order, so the
        # fault schedule replays exactly.
        if self._rng.random() < self._rate:
            raise InjectedFault(site, count)


@contextmanager
def _installed(plan: FaultPlan) -> Iterator[FaultPlan]:
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def inject(site: str, nth: int = 1) -> Iterator[FaultPlan]:
    """Raise :class:`InjectedFault` at the ``nth`` hit of ``site``."""
    return _installed(FaultPlan(site=site, nth=nth))


def inject_random(seed: int, rate: float,
                  sites: Iterable[str] | None = None
                  ) -> Iterator[FaultPlan]:
    """Seeded random faulting: each hit fires with probability ``rate``.

    ``sites`` restricts which fault points may fire (others only
    count).  The same ``seed`` replays the same schedule.
    """
    return _installed(FaultPlan(seed=seed, rate=rate, sites=sites))


def observe() -> Iterator[FaultPlan]:
    """Count fault-point hits without ever firing (plan.counts)."""
    return _installed(FaultPlan(armed=False))


#: Every named fault site planted in the library, grouped by layer.
#: The chaos suites draw their site sets from here instead of spelling
#: names inline, so a renamed or added :func:`fault_point` is caught by
#: the registry test rather than silently never firing.
SITES = frozenset({
    # engine fixpoint
    "engine.iteration", "engine.emit", "heads.replay",
    # columnar executor (kernel steps and chunked existence checks)
    "columnar.step",
    # incremental maintenance phases
    "maintain.apply", "maintain.dred", "maintain.insert",
    "maintain.overdelete", "maintain.rederive",
    # concurrent query server
    "server.accept", "server.dispatch", "server.maintain",
    "server.respond",
    # durability: write-ahead log, checkpoints, recovery
    "wal.append", "wal.commit", "wal.fsync", "wal.rotate",
    "checkpoint.write", "checkpoint.rename", "recover.replay",
    # replication: subscribe handshake, batch shipping (primary),
    # snapshot bootstrap, batch application (replica)
    "repl.subscribe", "repl.ship", "repl.bootstrap", "repl.apply",
})
