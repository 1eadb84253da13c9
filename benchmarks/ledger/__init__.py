"""Performance ledger: one harness whose end-to-end numbers decompose into layers.

``BENCHMARK.json`` at the repository root declares the workloads and metrics;
this package measures them.  Two entry points share one code path:

* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` — one workload, one JSON result line (the benchmark driver's
  contract);
* ``PYTHONPATH=src python -m benchmarks.ledger run|compare`` — every
  workload with quartiles, a machine fingerprint and a result file, and the
  tool that judges two result files.

Module map (parent process never imports ``repro`` so that a child's
``ru_maxrss`` is its own — see ``harness.py``):

* ``spec.py``      — metric declarations read from ``BENCHMARK.json``
* ``harness.py``   — spawns isolated children, aggregates repeats
* ``child.py``     — runs inside the child: the workload bodies
* ``calibrate.py`` — reference seconds: timings rescaled by the host's speed
* ``tracer.py``    — spans, engine instrumentation, counting probe
* ``compare.py``   — verdicts over two result files
* ``cli.py``       — ``run`` / ``compare`` front-end

See ``README.md`` for metric definitions and the predicted interactions.
"""
