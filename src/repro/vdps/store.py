"""Persistent on-disk store for :class:`~repro.vdps.delta.DeltaCatalog`.

A restarted dispatch service pays a cold C-VDPS build per center — the exact
cost the delta layer exists to avoid.  The store pickles each center's
:class:`DeltaCatalog` (its DP layers, entry-table columns, and
per-worker entry rows and payoffs) to one file under a root directory; on
restart the cache loads it and runs one ``refresh`` against the live
snapshot, which replays only whatever churned while the service was down.
Pickle round-trips floats exactly, so a warmed catalog stays bit-identical
to a rebuild.

Files are an internal cache, not an interchange format: a header records the
format version, the center and the pruning threshold, and anything that fails to load — truncated file, version skew,
epsilon mismatch — is treated as a miss (the service falls back to a cold
build and overwrites the file on the next persist).  Only point the store at
directories you trust; loading executes ``pickle``.
"""

from __future__ import annotations

import os
import pickle
import re
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import METRICS
from repro.vdps.delta import DeltaCatalog

#: Bump on any incompatible change to the pickled payload layout.
STORE_FORMAT = 6

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


class CatalogStore:
    """One ``<center>.catalog.pkl`` file per center under ``root``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, center_id: str) -> Path:
        """The center's file path (ids sanitised for the filesystem)."""
        return self._root / f"{_UNSAFE.sub('_', center_id)}.catalog.pkl"

    def save(self, center_id: str, delta: DeltaCatalog) -> bool:
        """Persist one center's delta catalog; returns success.

        Written atomically (temp file + rename) so a crash mid-save leaves
        the previous file intact.  An unpicklable catalog (e.g. a custom
        lambda metric) is counted and skipped, never raised.
        """
        payload = {
            "format": STORE_FORMAT,
            "center_id": center_id,
            "epsilon": delta.epsilon,
            "delta": delta,
        }
        path = self.path_for(center_id)
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except Exception:  # noqa: BLE001 — persistence is best-effort
            METRICS.counter("catalog.delta_store_errors").add(1)
            return False
        METRICS.counter("catalog.delta_store_saves").add(1)
        return True

    def load(
        self, center_id: str, epsilon: Optional[float]
    ) -> Optional[DeltaCatalog]:
        """The center's saved delta catalog, or ``None``.

        ``None`` covers every miss: no file, unreadable/foreign payload,
        format-version skew, a sanitised-name collision, or an ``epsilon``
        other than the one asked for.  Callers must ``refresh(sub)`` the
        returned catalog before use — it carries no materialised
        :class:`VDPSCatalog` and the world may have churned since the save.
        """
        path = self.path_for(center_id)
        if not path.exists():
            return None
        try:
            payload = pickle.loads(path.read_bytes())
            if (
                not isinstance(payload, dict)
                or payload.get("format") != STORE_FORMAT
                or not isinstance(payload.get("delta"), DeltaCatalog)
            ):
                raise ValueError("unrecognised catalog store payload")
        except Exception:  # noqa: BLE001 — a rotten file is just a miss
            METRICS.counter("catalog.delta_store_errors").add(1)
            return None
        if payload.get("center_id") != center_id or payload.get("epsilon") != epsilon:
            return None
        METRICS.counter("catalog.delta_store_loads").add(1)
        return payload["delta"]

    def clear(self) -> int:
        """Delete every stored catalog; returns how many were removed."""
        removed = 0
        for path in self._root.glob("*.catalog.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
