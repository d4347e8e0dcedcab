"""Out-of-process benchmark of the ``repro`` classification service.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
trains an artifact with ``repro-classify train``, serves it with
``repro-classify serve`` in a child process, drives it from this
process with at most ``nproc`` connections, checks every answer, and
prints the end-to-end metrics (``--trace 0``) or the per-layer split
(``--trace 1``).  See :mod:`perfbench.workloads` for the workloads and
:mod:`perfbench.layers` for the per-layer metrics.
"""
