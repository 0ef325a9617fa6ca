"""The perf ledger: this repository's benchmark.

``python3 -m ledger`` generates each workload from ``--seed``, drives the
program only through its public surface (``load_catalog``,
``Corpus.build_index``, ``CorpusIndex.save/load/query/update``,
``local_cluster``, the ``repro query`` CLI), prints every metric by name with
its unit and checks the outputs.  ``ledger/README.md`` documents every
workload and metric; ``BENCHMARK.json`` at the repository root is the
machine-readable contract and is generated from :mod:`ledger.catalogue`.

Importing this package has no side effects.  :mod:`ledger.env` must be
bootstrapped before NumPy or ``repro`` are imported (it pins the BLAS thread
count), which is why the heavy modules are imported lazily by
:mod:`ledger.__main__`.
"""
