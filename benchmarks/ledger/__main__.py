"""Command line of the performance ledger.

::

    python -m benchmarks.ledger run --seed 11 --out A.json
    python -m benchmarks.ledger trace --seed 11 --out T.json --md T.md
    python -m benchmarks.ledger compare A.json B.json
    python -m benchmarks.ledger --workload W --seed N --seconds S --trace 0

The last form is the benchmark contract's single run (``BENCHMARK.json``
names this file as the command): one workload, one JSON line.  The file
also runs as a plain script (``python3 benchmarks/ledger/__main__.py``)
from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

if __name__ == "__main__" and "PYTHONHASHSEED" not in os.environ:
    # Str hashes are salted per process, which reorders every set of
    # OIDs and moves run times by a few percent between otherwise
    # identical processes.  Pin the salt (here by re-executing, in
    # procs.py for the servers) so two runs differ by the machine only.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
# As a script, this directory heads sys.path (its modules would pose as
# top-level ones) and the checkout root is missing; the program under
# test lives in src/ (nothing is installed).
sys.path[:] = [entry for entry in sys.path if entry != str(_HERE)]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no program under test at {_ROOT / 'src' / 'repro'}; "
             f"run from a checkout of the repository")

from benchmarks.ledger import compare, ledger  # noqa: E402


def _names(args) -> list[str]:
    known = [w["name"] for w in ledger.spec()["workloads"]]
    chosen = args.workload or known
    for name in chosen:
        if name not in known:
            raise SystemExit(f"error: unknown workload {name!r} "
                             f"(known: {', '.join(known)})")
    return chosen


def _seconds(args) -> float:
    if args.seconds is not None:
        return args.seconds
    return 1.0 if args.smoke else float(ledger.spec()["run_seconds"])


def _write(document: dict, path) -> None:
    if path is not None:
        Path(path).write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {path}")


def _once(args) -> int:
    """The contract run: measure (or trace) one workload, print one line."""
    benchmark = ledger.spec()
    (name,) = _names(args)
    if args.trace:
        result = ledger.trace(name, args.seed, _seconds(args), args.smoke)
        listed = benchmark["per_layer"]
    else:
        result = ledger.measure(name, args.seed, _seconds(args), args.smoke)
        listed = benchmark["end_to_end"]
    print(json.dumps(result) if args.full
          else ledger.driver_line(result, listed))
    return 0


def _run(args) -> int:
    into = None
    if args.append and Path(args.out).exists():
        into = compare.load(args.out)
    document = ledger.run_set(_names(args), args.seed, _seconds(args),
                              args.runs, args.smoke, into=into)
    print()
    for name, slot in document["workloads"].items():
        for metric, entry in slot["metrics"].items():
            values = ", ".join(f"{v:.6g}" for v in entry["values"])
            print(f"{name} {metric} [{entry['unit']}]: {values}")
        print(f"{name} failed_share [ratio]: {slot['failed_share']:.6g} "
              f"({slot['failed']}/{slot['attempted']})")
    _write(document, args.out)
    return 1 if any(slot["failed"]
                    for slot in document["workloads"].values()) else 0


def _trace(args) -> int:
    document = ledger.trace_set(_names(args), args.seed, _seconds(args),
                                args.smoke, args.trace_out)
    text = ledger.render_trace(document)
    print(text)
    if args.md is not None:
        Path(args.md).write_text(text + "\n")
    _write(document, args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", default="once",
                        choices=["once", "run", "trace", "compare"])
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="once: 1 = traced run, per-layer metrics")
    parser.add_argument("--full", action="store_true",
                        help="once: print the whole result, not only the "
                             "metrics BENCHMARK.json lists (what `run` "
                             "collects from each of its child runs)")
    parser.add_argument("--runs", type=int, default=10,
                        help="run: runs per workload (seeds seed..seed+n-1)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code paths; results are "
                             "marked and refused by compare")
    parser.add_argument("--out", help="write the result set here")
    parser.add_argument("--append", action="store_true",
                        help="run: add these runs to the set already in "
                             "--out (alternate two files run by run to "
                             "put both through the same machine drift)")
    parser.add_argument("--md", help="trace: write the summary table here")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="trace: write every span, one file per "
                             "workload")
    args = parser.parse_args(argv)
    # A terminated harness must still reap its servers: turn SIGTERM
    # into an exit the ``finally`` blocks see.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes exactly two result files")
        return compare.main(*args.files)
    if args.files:
        parser.error(f"{args.command} takes no positional files")
    if args.append and args.out is None:
        parser.error("--append needs --out")
    if args.command == "once":
        if not args.workload or len(args.workload) != 1:
            parser.error("a single run needs exactly one --workload")
        return _once(args)
    return _run(args) if args.command == "run" else _trace(args)


if __name__ == "__main__":
    sys.exit(main())
