"""Batched numpy kernels for the subset-DP hot paths.

Three kernels port the catalog pipeline's pure-Python dict loops to array
passes, each bit-identical to its retained scalar reference (the
differential suites in ``tests/kernels/`` assert exact equality):

* :mod:`repro.kernels.cvdps` — the Algorithm-1 layered C-VDPS DP
  (:func:`~repro.kernels.cvdps.compute_layers`), kept in arrays per layer;
* :mod:`repro.kernels.validate` — the Section-IV per-worker validation
  scan (:class:`~repro.kernels.validate.EntryArrays`), fed by those
  layers directly;
* :mod:`repro.kernels.routing` — the Held-Karp routing DP
  (:func:`~repro.kernels.routing.best_route_vectorized`).

Tier selection (``scalar`` / ``vectorized``) lives in
:mod:`repro.kernels.config`; see ``docs/performance.md`` for the
representation and the canonical-tie-break argument.
"""

from repro.kernels.config import (
    KERNEL_ENV_VAR,
    VALID_KERNELS,
    default_kernel,
    resolve_kernel,
    set_default_kernel,
)

__all__ = [
    "KERNEL_ENV_VAR",
    "VALID_KERNELS",
    "default_kernel",
    "resolve_kernel",
    "set_default_kernel",
]
