"""The repo benchmark: six named workloads measured from outside.

``python -m benchmarks.e2e`` runs every workload (one fresh interpreter
each) and prints each metric by name with its unit;
``python -m benchmarks.e2e compare A.json B.json`` applies the bounds
declared in the root ``BENCHMARK.json``; ``benchmarks/e2e/run.py`` is
the single-workload entry the benchmark driver calls.  See README.md in
this directory for the workloads, the metrics and how to read the
per-layer ledger.

Nothing here is imported by ``src/``; the harness drives ``repro.live``
and ``repro.sim`` through their public API only.
"""
