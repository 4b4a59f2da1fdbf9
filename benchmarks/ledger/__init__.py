"""The performance ledger: absolute end-to-end and per-layer numbers.

Six fixed workloads, each generated from a seed, run untraced for the
end-to-end metrics and traced (spans recorded from harness code around
the public calls into each layer) for the per-layer split.  See
README.md in this directory for the workload and metric definitions and
``python -m benchmarks.ledger --help`` for the commands.
"""
