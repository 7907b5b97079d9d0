"""Frozen reference implementations the differential suites prove against.

Each module preserves a pre-refactor path of the library exactly as it
shipped, so a test or benchmark can assert that the optimised path produces
identical output and measure its speedup:

* :mod:`tests.oracles.rowpath` — row-oriented split search and decision
  tree (versus the columnar :mod:`repro.ml.matrix` pipeline);
* :mod:`tests.oracles.pairref` — dict-per-pair related-pair enumeration,
  record grouping, balanced sampling and training examples (versus the
  pair kernels of :mod:`repro.core.pairkernel`), and a training matrix
  whose columns are read from example dicts;
* :mod:`tests.oracles.engineref` — the processor-sharing simulation loop
  that recomputes every rate at every event (versus the event core of
  :mod:`repro.cluster.engine`);
* :mod:`tests.oracles.metricref` — row-walking satisfied flags, metric
  counts and SimButDiff similarity and scores (versus the row bitsets of
  :class:`repro.core.examples.TrainingMatrix`).

Tests import them as ``tests.oracles.<module>``; the repository root is on
``sys.path`` through the root ``conftest.py``.  Do not optimise these
modules — they are the fixed points the fast paths are proven against.
"""
