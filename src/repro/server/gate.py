"""A write-preferring asyncio readers/writer gate.

The server's whole concurrency story reduces to one invariant: **the
database never mutates while a query is evaluating on it**.  Readers
(query requests) hold the gate shared and evaluate against the frozen
database -- that is their snapshot; the maintainer task holds it
exclusive while it applies a write batch and patches the memoised
results, so a reader can never observe half a batch (no torn
snapshots).

Write preference keeps the single writer from starving under a steady
reader stream: once a writer is waiting, new readers queue behind it.
Readers already inside the gate finish first (their snapshot is the
pre-write state), the writer runs, then the queued readers see the
post-write state -- every answer corresponds to some prefix of the
applied batches.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager


class ReadWriteGate:
    """Shared/exclusive access with writer preference."""

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    @property
    def readers(self) -> int:
        """Readers currently inside the gate."""
        return self._readers

    @property
    def writing(self) -> bool:
        """Whether a writer is inside the gate (mutating the database)."""
        return self._writing

    @asynccontextmanager
    async def read(self):
        async with self._cond:
            while self._writing or self._writers_waiting:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @asynccontextmanager
    async def write(self):
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    await self._cond.wait()
                self._writing = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            async with self._cond:
                self._writing = False
                self._cond.notify_all()
