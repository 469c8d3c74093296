"""Valid Delivery Point Set (VDPS) generation — Section IV of the paper."""

from repro.vdps.generator import CVdpsEntry, generate_cvdps
from repro.vdps.pruning import neighbor_lists
from repro.vdps.catalog import (
    NULL_STRATEGY_ID,
    CatalogIndex,
    VDPSCatalog,
    WorkerIndex,
    WorkerStrategy,
    build_catalog,
    validate_entry,
    worker_offset_factor,
)
from repro.vdps.delta import DeltaCatalog, catalog_diff

__all__ = [
    "CVdpsEntry",
    "generate_cvdps",
    "neighbor_lists",
    "WorkerStrategy",
    "VDPSCatalog",
    "CatalogIndex",
    "WorkerIndex",
    "build_catalog",
    "validate_entry",
    "worker_offset_factor",
    "DeltaCatalog",
    "catalog_diff",
    "NULL_STRATEGY_ID",
]
