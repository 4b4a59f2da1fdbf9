"""``compare A.json B.json``: did anything move beyond noise?

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A *with A as its base*, and a verdict --

- ``unresolved``: either side's run-to-run spread (inter-quartile
  distance over the median) is wider than the metric's bound, so a
  move of that size cannot be told from noise;
- ``worse`` / ``better``: B's median is beyond the bound from A's;
- ``same``: within the bound.

Exit status is non-zero on any ``worse`` row or a higher failure share.
"""

from __future__ import annotations

import json

from benchmarks.ledger import ledger
from benchmarks.ledger.stats import quartiles, spread


class Refused(ValueError):
    """The two files cannot be compared (smoke, schema, kind)."""


def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != ledger.SCHEMA:
        raise Refused(f"{path}: schema {document.get('schema')!r}, "
                      f"this harness reads {ledger.SCHEMA}")
    if document.get("kind") != "run":
        raise Refused(f"{path}: not a `run` result set")
    if document.get("smoke"):
        raise Refused(f"{path}: smoke results measure nothing; "
                      f"refusing to compare them")
    return document


def verdict(name: str, base: list[float], other: list[float],
            bound: float) -> str:
    if max(spread(base), spread(other)) > bound:
        return "unresolved"
    a, b = quartiles(base)[1], quartiles(other)[1]
    if name in ledger.HIGHER_IS_BETTER:
        a, b = b, a  # now "b larger than a" always means worse
    if b > a * (1.0 + bound):
        return "worse"
    if b < a * (1.0 - bound):
        return "better"
    return "same"


def rows(base: dict, other: dict) -> list[dict]:
    table = []
    for workload, slot in base["workloads"].items():
        if workload not in other["workloads"]:
            continue
        theirs = other["workloads"][workload]
        for metric, entry in slot["metrics"].items():
            if metric not in theirs["metrics"]:
                continue
            a = entry["values"]
            b = theirs["metrics"][metric]["values"]
            qa, qb = quartiles(a), quartiles(b)
            bound = ledger.bound(metric)
            table.append({
                "workload": workload, "metric": metric,
                "unit": entry["unit"], "bound": bound,
                "a": qa, "b": qb,
                "ratio": qb[1] / qa[1] if qa[1] else float("inf"),
                "verdict": verdict(metric, a, b, bound),
            })
        table.append({
            "workload": workload, "metric": "failed_share", "unit": "ratio",
            "bound": 0.0,
            "a": (slot["failed_share"],) * 3,
            "b": (theirs["failed_share"],) * 3,
            "ratio": None,
            "verdict": ("worse" if theirs["failed_share"]
                        > slot["failed_share"] else "same"),
        })
    return table


def render(table: list[dict], base_name: str, other_name: str) -> str:
    lines = [f"A = {base_name} (the base of every ratio), B = {other_name}",
             "",
             "| workload | metric | A median [q1, q3] | B median [q1, q3] "
             "| B/A | bound | verdict |",
             "|---|---|---|---|---:|---:|---|"]
    for row in table:
        def cell(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {row['unit']}"
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(f"| {row['workload']} | `{row['metric']}` | "
                     f"{cell(row['a'])} | {cell(row['b'])} | {ratio} | "
                     f"{row['bound']:.2f} | {row['verdict']} |")
    return "\n".join(lines)


def main(base_path, other_path, out=print) -> int:
    try:
        base, other = load(base_path), load(other_path)
    except Refused as error:
        out(f"error: {error}")
        return 2
    table = rows(base, other)
    out(render(table, str(base_path), str(other_path)))
    counts: dict[str, int] = {}
    for row in table:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    out("")
    out(", ".join(f"{count} {kind}" for kind, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0
