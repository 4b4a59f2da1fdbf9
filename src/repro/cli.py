"""Command-line interface: evaluate programs, run queries, explain plans.

Usage::

    python -m repro program.plog --query "X : employee.age[A]"
    python -m repro program.plog --dump out.json --stats
    python -m repro --db snapshot.json --query "X : employee"
    python -m repro program.plog --explain
    python -m repro program.plog --magic --query "p1..desc[self -> Y]"
    python -m repro explain "X : employee.city[C]" --db snapshot.json
    python -m repro explain "p1[desc ->> {Y}]" --program p.plog --magic

A program file contains PathLog facts and rules (see docs/language.md
for the syntax).  ``--query`` may be given multiple times; answers print one row
per line as ``Var=value`` pairs.  ``--dump`` writes the materialised
database as JSON (reloadable with ``--db``).  ``--explain`` prints the
per-rule join plans the engine used.  ``--magic`` answers each query
demand-driven: the program is magic-set rewritten per query so only the
facts the query needs are derived (``--stats`` and ``--explain`` then
describe the demand run, including the rewritten-vs-fallback rules).
``--executor`` picks the plan executor: ``columnar`` (int-surrogate
columns over the OID interner, the engine's fixpoint default),
``batch`` (boxed set-at-a-time binding columns), ``compiled``
(tuple-at-a-time kernels, the ad-hoc query default), or
``interpreted`` (the dict-binding walk); ``--stats`` rows ``batches``
and ``batch_rows`` report how many batched executions ran and how many
solution rows they produced (zero outside batched evaluation),
``heads-compiled``/``heads-fallback`` how many plans realise their
heads set-at-a-time vs. row by row (``batches``, ``plans``,
``plan-hits``, ``kernels`` and ``heads-compiled`` count only the delta
positions a semi-naive round actually seeded), ``snapshot-s`` the part of
``seconds`` spent before the first rule fires (clone, catalog, mirrors),
and ``buckets-copied`` how many shared buckets of that copy-on-write
clone the run had to copy before writing to them.
``--timeout-ms`` and ``--max-derived`` attach a cooperative
:class:`~repro.engine.budget.QueryBudget` to the whole invocation
(evaluation, maintenance, and query answering share one deadline); on
expiry the process prints one ``error:`` line and exits with code 2
(see docs/robustness.md).
The ``explain`` subcommand prints the plan of one query -- ordered
atoms, estimated (and, unless ``--no-analyze`` is given, actual) rows,
and the access path per atom; with ``--magic`` it also prints the
demand section, and it accepts the same budget flags.  The subcommand
is recognised by its first-argument position; a program file literally
named ``explain`` must be written as ``./explain``.

The ``serve`` subcommand starts the concurrent query server
(:mod:`repro.server`, protocol in docs/server.md) over the loaded
database::

    python -m repro serve program.plog --port 7407
    python -m repro serve --db snapshot.json --port 0

It prints one ``serving on HOST:PORT`` line once bound (``--port 0``
binds an ephemeral port and prints the real one), serves until
``SIGTERM``/``SIGINT`` (or a client ``shutdown`` request), then drains
gracefully: in-flight requests finish within ``--drain-ms``, new ones
get a retryable ``shutting_down`` response.  ``--max-inflight`` and
``--max-queue`` bound concurrency and the admission queue (beyond the
queue the server sheds with ``overloaded`` + ``retry_after_ms``);
``--default-timeout-ms``/``--max-timeout-ms``/``--max-derived`` bound
each request's budget.

With ``--data-dir DIR`` the server is **durable** (docs/durability.md):
startup recovers the directory (existing state wins over ``--db`` or a
program file), every write batch is journalled to a write-ahead log
before it is acknowledged (``--fsync always|batch|off``), and a
background task checkpoints once the WAL passes ``--checkpoint-bytes``.
Two more subcommands operate on a data directory offline::

    python -m repro snapshot data/ program.plog   # seed or compact
    python -m repro recover data/ --verify        # dry-run fsck
    python -m repro recover data/ --dump state.json

``snapshot`` recovers the directory (seeding an empty one from a
program and/or ``--db``) and writes a fresh checkpoint, compacting the
WAL.  ``recover`` replays the committed WAL suffix, reports entries
replayed / torn-tail bytes truncated / uncommitted records discarded,
and exits 2 on unrecoverable corruption (``--verify`` reports without
modifying the directory).

Long-lived embedders (servers holding a :class:`~repro.query.Query`
over a mutating database) additionally get incremental view
maintenance: with ``Database.begin_changes()`` active, memoised
results are patched by overdelete/rederive/insert passes instead of
re-derived, ``--stats``-style rows (``maintenance``, ``overdeleted``,
``rederived``, ``reinserted``, ``evictions``) report what maintenance
did, and ``Query.explain`` adds a ``maintenance:`` section (see
docs/performance.md).  One-shot CLI invocations evaluate exactly once,
so these rows read zero here.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.engine import Engine, EngineLimits, QueryBudget
from repro.errors import BudgetExceededError, PathLogError
from repro.lang.parser import parse_program
from repro.oodb import serialize
from repro.oodb.database import Database
from repro.query import Query


def build_parser() -> argparse.ArgumentParser:
    """The argparse definition (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PathLog: evaluate rule programs and query objects "
                    "by path expressions (Frohn/Lausen/Uphoff 1994).",
    )
    parser.add_argument("program", nargs="?", type=Path,
                        help="PathLog program file (facts and rules)")
    parser.add_argument("--db", type=Path, metavar="JSON",
                        help="load a database snapshot before evaluating")
    parser.add_argument("--query", "-q", action="append", default=[],
                        metavar="QUERY",
                        help="conjunctive query to run (repeatable)")
    parser.add_argument("--dump", type=Path, metavar="JSON",
                        help="write the materialised database as JSON")
    parser.add_argument("--naive", action="store_true",
                        help="use naive instead of semi-naive iteration")
    parser.add_argument("--max-iterations", type=int, default=10_000)
    parser.add_argument("--stats", action="store_true",
                        help="print engine statistics after evaluation")
    parser.add_argument("--explain", action="store_true",
                        help="print the engine's per-rule join plans")
    parser.add_argument("--magic", action="store_true",
                        help="answer each --query demand-driven (magic-set "
                             "rewriting) instead of materialising the full "
                             "fixpoint first")
    parser.add_argument("--executor",
                        choices=["columnar", "batch", "compiled",
                                 "interpreted"],
                        help="plan executor: columnar (int-surrogate "
                             "columns, the engine default), batch "
                             "(boxed set-at-a-time columns), compiled "
                             "(tuple-at-a-time kernels, the query default), "
                             "or interpreted (dict-binding walk)")
    _add_budget_arguments(parser)
    return parser


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout-ms", type=float, metavar="MS",
                        help="wall-clock budget for the whole invocation; "
                             "on expiry evaluation stops at the next "
                             "checkpoint and the process exits 2")
    parser.add_argument("--max-derived", type=int, metavar="N",
                        help="cap on facts a single fixpoint run may "
                             "derive; on excess the process exits 2")


def _budget_from(args) -> QueryBudget | None:
    """One shared budget per invocation, or None without limits."""
    if args.timeout_ms is None and args.max_derived is None:
        return None
    return QueryBudget(timeout_ms=args.timeout_ms,
                       max_derived=args.max_derived)


def build_explain_parser() -> argparse.ArgumentParser:
    """The argparse definition of the ``explain`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Print the join plan of one PathLog query: atom "
                    "order, estimated vs. actual rows, access paths.",
    )
    parser.add_argument("query", help="conjunctive query to explain")
    parser.add_argument("--db", type=Path, metavar="JSON",
                        help="database snapshot to plan against")
    parser.add_argument("--program", type=Path, metavar="PLOG",
                        help="evaluate this program first, then explain "
                             "against the materialised database")
    parser.add_argument("--no-analyze", action="store_true",
                        help="plan only; do not execute to count rows")
    parser.add_argument("--magic", action="store_true",
                        help="demand-driven: magic-set rewrite --program for "
                             "this query and explain over the demanded "
                             "result (prints the demand section)")
    parser.add_argument("--executor",
                        choices=["columnar", "batch", "compiled",
                                 "interpreted"],
                        help="executor whose kernels the plan report names "
                             "(and runs, unless --no-analyze)")
    _add_budget_arguments(parser)
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The argparse definition of the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve concurrent PathLog queries over a framed "
                    "JSON protocol (see docs/server.md).",
    )
    parser.add_argument("program", nargs="?", type=Path,
                        help="PathLog program answered demand-driven "
                             "by the server's shared query")
    parser.add_argument("--db", type=Path, metavar="JSON",
                        help="load a database snapshot to serve")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7407,
                        help="TCP port (0 binds an ephemeral port and "
                             "prints it)")
    parser.add_argument("--executor",
                        choices=["columnar", "batch", "compiled",
                                 "interpreted"],
                        help="pin the shared query's plan executor")
    parser.add_argument("--no-magic", action="store_true",
                        help="materialise the full fixpoint per query "
                             "instead of demand-driven evaluation")
    parser.add_argument("--max-inflight", type=int, default=8,
                        help="concurrent query evaluations (thread-pool "
                             "size)")
    parser.add_argument("--max-queue", type=int, default=32,
                        help="admitted-but-waiting requests before the "
                             "server sheds with 'overloaded'")
    parser.add_argument("--default-timeout-ms", type=float, metavar="MS",
                        help="budget for requests that name no "
                             "timeout_ms")
    parser.add_argument("--max-timeout-ms", type=float, metavar="MS",
                        help="hard cap on any request's timeout_ms")
    parser.add_argument("--max-derived", type=int, metavar="N",
                        help="default per-request derived-fact cap")
    parser.add_argument("--drain-ms", type=float, default=5_000.0,
                        metavar="MS",
                        help="how long graceful shutdown waits for "
                             "in-flight requests")
    parser.add_argument("--data-dir", type=Path, metavar="DIR",
                        help="durable data directory: recovered on "
                             "startup (existing state wins over "
                             "--db/program), every write batch "
                             "journalled to the write-ahead log")
    parser.add_argument("--fsync", choices=["always", "batch", "off"],
                        default="batch",
                        help="WAL sync policy (default: batch -- one "
                             "fsync per committed write batch)")
    parser.add_argument("--checkpoint-bytes", type=int,
                        default=4 * 1024 * 1024, metavar="N",
                        help="WAL size that triggers a background "
                             "checkpoint")
    parser.add_argument("--checkpoint-interval-ms", type=float,
                        default=250.0, metavar="MS",
                        help="how often the checkpointer polls the WAL "
                             "size")
    parser.add_argument("--replica-of", metavar="HOST:PORT",
                        help="serve as a read replica: bootstrap from "
                             "the primary's snapshot, stream its "
                             "change-log batches, refuse writes "
                             "(docs/server.md 'Replication')")
    parser.add_argument("--max-lag", type=int, metavar="N",
                        help="replica: shed reads with a typed 'stale' "
                             "error once more than N change-log entries "
                             "behind the primary")
    parser.add_argument("--repl-poll-ms", type=float, default=200.0,
                        metavar="MS",
                        help="replica: long-poll wait per batch request "
                             "when caught up")
    return parser


def build_snapshot_parser() -> argparse.ArgumentParser:
    """The argparse definition of the ``snapshot`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro snapshot",
        description="Recover a durable data directory and write a "
                    "fresh checkpoint (compacting the write-ahead "
                    "log).  An empty directory can be seeded from "
                    "--db or a program file.",
    )
    parser.add_argument("data_dir", type=Path,
                        help="durable data directory")
    parser.add_argument("program", nargs="?", type=Path,
                        help="PathLog program evaluated to seed an "
                             "empty directory")
    parser.add_argument("--db", type=Path, metavar="JSON",
                        help="database snapshot seeding an empty "
                             "directory")
    return parser


def build_recover_parser() -> argparse.ArgumentParser:
    """The argparse definition of the ``recover`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro recover",
        description="Rebuild the committed state of a durable data "
                    "directory: replay the WAL past the newest valid "
                    "snapshot, truncate any torn tail, report what "
                    "was done.  Exits 2 on unrecoverable corruption.",
    )
    parser.add_argument("data_dir", type=Path,
                        help="durable data directory")
    parser.add_argument("--verify", action="store_true",
                        help="dry run: report without trimming torn "
                             "tails on disk")
    parser.add_argument("--dump", type=Path, metavar="JSON",
                        help="write the recovered database as JSON")
    return parser


def run(argv: Sequence[str] | None = None, *, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "explain":
        return _run_explain(argv[1:], out)
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:], out)
    if argv and argv[0] == "snapshot":
        return _run_snapshot(argv[1:], out)
    if argv and argv[0] == "recover":
        return _run_recover(argv[1:], out)
    args = build_parser().parse_args(argv)
    if args.program is None and args.db is None:
        print("error: need a program file and/or --db snapshot",
              file=out)
        return 2
    if args.magic:
        if args.program is None or not args.query:
            print("error: --magic needs a program file and at least one "
                  "--query (demand comes from the query)", file=out)
            return 2
        if args.dump is not None:
            print("error: --magic derives only what the queries demand; "
                  "--dump needs the full fixpoint (drop --magic)", file=out)
            return 2
    budget = _budget_from(args)
    try:
        if args.magic:
            return _run_magic(args, out, budget)
        db = _load_database(args)
        db, engine = _evaluate(args, db, budget)
        if engine is not None and args.stats:
            for key, value in engine.stats.as_row().items():
                print(f"stats {key}: {value}", file=out)
        if engine is not None and args.explain:
            print(engine.explain(), file=out)
        for text in args.query:
            _print_rows(Query(db, executor=args.executor,
                              budget=budget).all(text),
                        text, out)
        if args.dump is not None:
            args.dump.write_text(serialize.dumps(db, indent=2))
            print(f"dumped database to {args.dump}", file=out)
    except BudgetExceededError as error:
        print(f"error: {error}", file=out)
        return 2
    except PathLogError as error:
        print(f"error: {error}", file=out)
        return 1
    except OSError as error:
        print(f"error: {error}", file=out)
        return 1
    return 0


def _run_magic(args, out, budget=None) -> int:
    """Demand-driven query answering (``--magic``)."""
    db = _load_database(args)
    program = parse_program(args.program.read_text())
    limits = EngineLimits(max_iterations=args.max_iterations)
    query = Query(db, program=program, magic=True,
                  seminaive=not args.naive, limits=limits,
                  executor=args.executor, budget=budget)
    for text in args.query:
        _print_rows(query.all(text), text, out)
        engine = query.last_demand
        if engine is not None and args.stats:
            for key, value in engine.stats.as_row().items():
                print(f"stats {key}: {value}", file=out)
        if engine is not None and args.explain:
            print(engine.explain(), file=out)
    return 0


def _run_explain(argv: Sequence[str], out) -> int:
    args = build_explain_parser().parse_args([str(a) for a in argv])
    if args.magic and args.program is None:
        print("error: --magic needs --program (the rules to rewrite)",
              file=out)
        return 2
    budget = _budget_from(args)
    try:
        db = _load_database(args)
        if args.magic:
            program = parse_program(args.program.read_text())
            query = Query(db, program=program, magic=True,
                          executor=args.executor, budget=budget)
        elif args.program is not None:
            program = parse_program(args.program.read_text())
            query = Query(Engine(db, program, budget=budget).run(),
                          executor=args.executor, budget=budget)
        else:
            query = Query(db, executor=args.executor, budget=budget)
        report = query.explain(args.query, analyze=not args.no_analyze)
        print(report.render(), file=out)
    except BudgetExceededError as error:
        print(f"error: {error}", file=out)
        return 2
    except PathLogError as error:
        print(f"error: {error}", file=out)
        return 1
    except OSError as error:
        print(f"error: {error}", file=out)
        return 1
    return 0


def _run_serve(argv: Sequence[str], out) -> int:
    args = build_serve_parser().parse_args([str(a) for a in argv])
    if (args.program is None and args.db is None
            and args.data_dir is None and args.replica_of is None):
        print("error: need a program file, --db snapshot, --data-dir, "
              "and/or --replica-of", file=out)
        return 2
    if args.replica_of is not None and args.data_dir is not None:
        print("error: --replica-of and --data-dir are mutually "
              "exclusive (a replica bootstraps from its primary; "
              "durability lives there)", file=out)
        return 2
    if args.replica_of is not None and args.db is not None:
        print("error: --replica-of bootstraps the database from the "
              "primary; drop --db", file=out)
        return 2
    try:
        db = _load_database(args)
        program = (parse_program(args.program.read_text())
                   if args.program is not None else None)
    except (PathLogError, OSError) as error:
        print(f"error: {error}", file=out)
        return 1
    import asyncio

    from repro.server import Server, ServerConfig

    config = ServerConfig(
        host=args.host, port=args.port,
        max_inflight=args.max_inflight, max_queue=args.max_queue,
        default_timeout_ms=args.default_timeout_ms,
        max_timeout_ms=args.max_timeout_ms,
        default_max_derived=args.max_derived,
        drain_ms=args.drain_ms,
        executor=args.executor, magic=not args.no_magic,
        data_dir=args.data_dir, fsync=args.fsync,
        checkpoint_bytes=args.checkpoint_bytes,
        checkpoint_interval_ms=args.checkpoint_interval_ms,
        replica_of=args.replica_of, max_lag=args.max_lag,
        repl_poll_ms=args.repl_poll_ms,
    )

    async def main() -> None:
        import signal

        server = await Server(db, program=program, config=config).start()
        host, port = server.address
        print(f"serving on {host}:{port}", file=out, flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(server.shutdown()))
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-POSIX platforms, or serving off the main thread
                # (the test suite does): drain via the wire-level
                # shutdown request instead.
                pass
        await server.serve_forever()
        print("drained, bye", file=out, flush=True)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        pass
    except (OSError, PathLogError) as error:
        # PathLogError covers a replica whose bootstrap attempts were
        # exhausted (ReplicationError) -- startup fails loudly.
        print(f"error: {error}", file=out)
        return 1
    return 0


def _run_snapshot(argv: Sequence[str], out) -> int:
    args = build_snapshot_parser().parse_args([str(a) for a in argv])
    from repro.oodb.checkpoint import DurableStore, RecoveryError
    try:
        seed = _load_database(args)
        if args.program is not None:
            program = parse_program(args.program.read_text())
            seed = Engine(seed, program).run()
        store = DurableStore.open(args.data_dir, db=seed)
        try:
            if store.recovery is not None and not store.recovery.fresh:
                print(f"recovered {store.recovery.recovered_entries} "
                      f"entries from the write-ahead log", file=out)
            path = store.checkpoint()
        finally:
            store.close(commit=False)
        print(f"snapshot {path} @ cursor {store.durable_cursor()}",
              file=out)
    except RecoveryError as error:
        print(f"error: {error}", file=out)
        return 2
    except (PathLogError, OSError) as error:
        print(f"error: {error}", file=out)
        return 1
    return 0


def _run_recover(argv: Sequence[str], out) -> int:
    args = build_recover_parser().parse_args([str(a) for a in argv])
    from repro.oodb.checkpoint import RecoveryError, recover
    try:
        result = recover(args.data_dir, trim=not args.verify)
    except (RecoveryError, PathLogError) as error:
        print(f"error: {error}", file=out)
        return 2
    except OSError as error:
        print(f"error: {error}", file=out)
        return 1
    mode = "verified (dry run)" if args.verify else "recovered"
    source = (str(result.snapshot_path) if result.snapshot_path
              else "none (empty start)")
    print(f"{mode} {args.data_dir} @ cursor {result.cursor}", file=out)
    print(f"  snapshot: {source}", file=out)
    for path, reason in result.snapshots_skipped:
        print(f"  skipped corrupt snapshot: {path} ({reason})", file=out)
    print(f"  entries replayed: {result.recovered_entries}", file=out)
    print(f"  tail truncated: {result.truncated_tail} bytes", file=out)
    print(f"  uncommitted records discarded: {result.discarded_records}",
          file=out)
    if args.dump is not None:
        try:
            args.dump.write_text(serialize.dumps(result.database,
                                                 indent=2))
        except OSError as error:
            print(f"error: {error}", file=out)
            return 1
        print(f"dumped recovered database to {args.dump}", file=out)
    return 0


def _load_database(args) -> Database:
    if args.db is not None:
        return serialize.loads(args.db.read_text())
    return Database()


def _evaluate(args, db: Database, budget=None):
    if args.program is None:
        return db, None
    program = parse_program(args.program.read_text())
    limits = EngineLimits(max_iterations=args.max_iterations)
    engine = Engine(db, program, seminaive=not args.naive, limits=limits,
                    executor=args.executor, budget=budget)
    return engine.run(), engine


def _print_rows(rows, text: str, out) -> None:
    print(f"?- {text}", file=out)
    if not rows:
        print("  no", file=out)
        return
    for row in rows:
        if len(row) == 0:
            print("  yes", file=out)
        else:
            rendered = "  ".join(
                f"{name}={row.value(name)}" for name in sorted(row)
            )
            print(f"  {rendered}", file=out)


def main() -> None:  # pragma: no cover - thin process wrapper
    sys.exit(run())
