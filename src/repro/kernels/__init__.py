"""Batched numpy kernels for the subset-DP hot paths.

Two kernels run the catalog pipeline as array passes, each bit-identical
to a dict-loop reference in :mod:`repro.oracle` (the differential suites
in ``tests/kernels/`` assert exact equality):

* :mod:`repro.kernels.cvdps` — the Algorithm-1 layered C-VDPS DP
  (:func:`~repro.kernels.cvdps.compute_layers`), kept in arrays per layer;
* :mod:`repro.kernels.validate` — the Section-IV per-worker validation
  scan (:class:`~repro.kernels.validate.EntryArrays`), fed by those
  layers directly.

Speed-scaled workers, whose routes are re-timed per worker, run the
per-entry ``validate_entry`` loop instead of the array scan.

There is one tier: production always runs these kernels.  See
``docs/performance.md`` for the representation and the
canonical-tie-break argument.
"""
