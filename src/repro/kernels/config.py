"""Kernel-tier selection for the subset-DP hot paths.

Two tiers exist for the C-VDPS layered DP, the Section-IV per-worker
validation scan, and the Held-Karp routing DP:

* ``scalar`` — the reference Python dict loops (always retained; the
  differential suites compare the vectorized tier against it).
* ``vectorized`` — numpy array kernels in :mod:`repro.kernels`,
  bit-identical to scalar by construction (same float evaluation order,
  same canonical tie-breaks).  The default.

The process-wide default comes from the ``REPRO_KERNEL`` environment
variable and can be overridden per call via the ``kernel=`` parameters on
:func:`repro.vdps.generator.generate_cvdps`,
:func:`repro.vdps.catalog.build_catalog`,
:class:`repro.vdps.delta.DeltaCatalog`, and
:func:`repro.core.routing.best_route`, or process-wide via
:func:`set_default_kernel` (the ``--kernel`` CLI flag).
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable naming the process-wide default kernel tier.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: The accepted tier names.
VALID_KERNELS = ("scalar", "vectorized")

_default_kernel: Optional[str] = None


def _check(name: str) -> str:
    name = name.strip().lower()
    if name not in VALID_KERNELS:
        raise ValueError(
            f"kernel must be one of {', '.join(VALID_KERNELS)}, got {name!r}"
        )
    return name


def set_default_kernel(kernel: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default kernel tier.

    A cleared default falls back to ``REPRO_KERNEL``, then ``vectorized``.
    """
    global _default_kernel
    _default_kernel = None if kernel is None else _check(kernel)


def default_kernel() -> str:
    """The process-wide default tier (override > env var > vectorized)."""
    if _default_kernel is not None:
        return _default_kernel
    env = os.environ.get(KERNEL_ENV_VAR)
    if env:
        return _check(env)
    return "vectorized"


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """The effective tier for one call: ``scalar`` or ``vectorized``.

    ``None`` resolves the process default; anything else is validated.
    """
    return default_kernel() if kernel is None else _check(kernel)
