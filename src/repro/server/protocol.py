"""Wire protocol of the concurrent query server.

One connection carries a sequence of *frames*, each a 4-byte
big-endian length prefix followed by that many bytes of UTF-8 JSON.
Requests and responses are JSON objects; a client may send the next
request before reading the previous response (the server answers one
connection's requests in order).

Requests (``op`` selects the operation, ``id`` is echoed back):

- ``{"op": "query", "query": "X : employee", "variables": ["X"],
  "timeout_ms": 100, "max_derived": 10000, "limit": 50}`` --
  ``variables`` and the budget/limit fields are optional.
- ``{"op": "write", "changes": [...]}`` with each change a compact
  array: ``["+scalar", method, subject, [args...], result]``,
  ``["-scalar", method, subject, [args...]]``,
  ``["+set"|"-set", method, subject, [args...], member]``,
  ``["+isa"|"-isa", object, class]``.  Fields are *names* (strings or
  integers), resolved through the database's name map.
- ``{"op": "health"}`` / ``{"op": "stats"}`` -- liveness and counters.
- ``{"op": "shutdown"}`` -- begin a graceful drain (see docs/server.md).

Replication (primary side; see docs/server.md "Replication"):

- ``{"op": "repl.snapshot"}`` -- a checksummed bootstrap snapshot of
  the whole database at a whole-batch boundary, with its change-log
  ``cursor`` and the primary's ``log_id`` (one per change-log epoch).
- ``{"op": "repl.subscribe", "cursor": C, "log_id": "..."}`` --
  register a replication subscriber at ``C``; the primary pins the
  change log with a lease so trimming can never reclaim unshipped
  entries.  A cursor below the trim horizon, past the head, or from a
  different log epoch answers ``resync_required``.
- ``{"op": "repl.batch", "sub": id, "cursor": C, "wait_ms": W}`` --
  acknowledge everything below ``C`` (the lease advances) and ship the
  committed entries past it, whole batches only.  With no new entries
  the primary long-polls up to ``wait_ms`` before answering empty.

Responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error":
{"code", "message", "retryable", "retry_after_ms"?}}``.  The error
codes are enumerated below; ``retryable`` tells a client whether
backing off and resending is meaningful (overload, deadline, drain)
or pointless (the request itself is wrong).
"""

from __future__ import annotations

import asyncio
import json

#: Frames above this many bytes are rejected before allocation: a
#: corrupt length prefix must not make the server try to buffer 4 GiB.
MAX_FRAME = 16 * 1024 * 1024

_PREFIX = 4

# -- error codes -----------------------------------------------------------

#: Admission queue full; the response carries ``retry_after_ms``.
OVERLOADED = "overloaded"
#: The per-request budget expired (or the request was cancelled).
TIMEOUT = "timeout"
#: The server is draining; it will not take new work.
SHUTTING_DOWN = "shutting_down"
#: The query/write itself is invalid (syntax, conflict, unknown op).
QUERY_ERROR = "query_error"
#: The request frame is not a well-formed request object.
BAD_REQUEST = "bad_request"
#: An unexpected server-side failure; writes were rolled back.
INTERNAL = "internal"
#: A write reached a read replica; route it to the primary instead.
READ_ONLY = "read_only"
#: The replica's staleness exceeds its ``max_lag`` bound; the response
#: carries ``retry_after_ms`` (reads elsewhere, or here once caught up).
STALE = "stale"
#: A replication cursor the primary can no longer serve incrementally
#: (trimmed past, wrong log epoch, or past the head): the subscriber
#: must re-bootstrap from ``repl.snapshot`` and resubscribe.
RESYNC_REQUIRED = "resync_required"

#: Codes a client may retry after backing off.  ``resync_required`` is
#: retryable in the replication sense: the stream is re-establishable
#: after a snapshot re-bootstrap, the connection stays usable.
RETRYABLE_CODES = frozenset({OVERLOADED, TIMEOUT, SHUTTING_DOWN, STALE,
                             RESYNC_REQUIRED})


class FrameTooLarge(ValueError):
    """A frame length prefix exceeded :data:`MAX_FRAME`."""


def encode_json(value) -> bytes:
    """The compact UTF-8 JSON every frame body is made of."""
    return json.dumps(value, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def encode_frame(payload: dict) -> bytes:
    """One wire frame: length prefix plus compact JSON body."""
    return _frame(encode_json(payload))


def answer_frame(request: dict | None, answers: bytes, **payload) -> bytes:
    """The frame of ``ok(request, answers=..., **payload)``, with the
    ``answers`` array given already encoded (:func:`encode_json`) --
    spliced in as the last field, so it is never decoded again."""
    head = encode_json(ok(request, **payload))
    return _frame(head[:-1] + b',"answers":' + answers + b"}")


def _frame(body: bytes) -> bytes:
    if len(body) > MAX_FRAME:
        raise FrameTooLarge(f"frame of {len(body)} bytes exceeds "
                            f"MAX_FRAME ({MAX_FRAME})")
    return len(body).to_bytes(_PREFIX, "big") + body


async def read_frame(reader: asyncio.StreamReader,
                     max_frame: int = MAX_FRAME) -> dict | None:
    """The next decoded frame, or None at a clean end of stream.

    Raises :class:`FrameTooLarge` for an oversized prefix,
    :class:`asyncio.IncompleteReadError` for a truncated frame and
    :class:`ValueError` for a body that is not JSON or holds ``NaN``
    or ``Infinity`` -- each means the connection must close.
    """
    try:
        prefix = await reader.readexactly(_PREFIX)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    length = int.from_bytes(prefix, "big")
    if length > max_frame:
        raise FrameTooLarge(f"incoming frame of {length} bytes exceeds "
                            f"the {max_frame} byte limit")
    body = await reader.readexactly(length)
    return json.loads(body.decode("utf-8"), parse_constant=_non_finite)


def _non_finite(name: str):
    raise ValueError(f"non-finite number {name} in frame")


def ok(request: dict | None = None, **payload) -> dict:
    """A success response (echoes the request ``id`` when present)."""
    response = {"ok": True}
    if request is not None and "id" in request:
        response["id"] = request["id"]
    response.update(payload)
    return response


def error(code: str, message: str, *, request: dict | None = None,
          retry_after_ms: float | None = None) -> dict:
    """An error response; ``retryable`` derives from the code."""
    detail = {"code": code, "message": message,
              "retryable": code in RETRYABLE_CODES}
    if retry_after_ms is not None:
        detail["retry_after_ms"] = retry_after_ms
    response = {"ok": False, "error": detail}
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response
