"""Disk-backed campaign results: per-condition records + a resumable manifest.

A qualification campaign with thousands of (focus, dose) conditions cannot
keep its results in RAM, and a multi-hour sweep that dies at condition 4 817
must not recompute the first 4 816.  :class:`CampaignStore` gives the sweep
layer both properties:

* every completed condition is persisted **immediately** as its own record,
* a condition is marked complete only *after* its record is safely on disk,
  via an **append-only completion log** (one JSON line per condition, O(1)
  per record — a thousands-of-conditions campaign never rewrites its whole
  manifest per condition); the manifest itself is rewritten atomically
  (``atomic_write``) only at session boundaries, so a kill at any
  instant leaves either a complete condition or no trace of it — never a
  corrupt store (a torn final log line is ignored on load), and
* a re-run against the same store directory skips every completed condition
  and computes exactly the remainder (``resume=True``), provided the
  campaign identity matches.

Conditions may be persisted in **any order**: records are keyed by exact
condition id, never by position, so the sweep's nominal-focus-first order —
or a store written by a release that completed conditions out of order —
needs no special handling, and resume semantics do not depend on what
produced the store.

Directory layout
----------------
::

    store_dir/
      manifest.json            # the campaign manifest (schema below)
      completed.log            # JSONL: one {"id", "entry"} line appended per
                               # condition completed since the manifest was
                               # last consolidated (merged + truncated by
                               # the next begin())
      cond_<id>.npz            # one record per completed condition
      aerial_f<focus>.npy      # optional per-focus aerial memmap
                               # (store_aerials=True; numpy .npy format,
                               # readable via np.load(..., mmap_mode="r"))

Each ``cond_<id>.npz`` holds scalar arrays ``focus_nm``, ``dose``, ``cd_nm``
and ``threshold`` (the dose-scaled resist threshold the CD was extracted
at).  ``<id>`` is ``f<focus>_d<dose>`` with the floats in ``repr`` form
(sanitised for filenames), so condition identity is exact — no float
rounding ambiguity between runs.

Manifest schema (``manifest.json``)
-----------------------------------
::

    {
      "version": 1,
      "campaign": {            # identity — must match exactly to resume
        "layout_sha256": "...",    # hash of the raw layout bytes + shape
        "layout_shape": [H, W],
        "optics_fingerprint": "...",   # EngineSpec.fingerprint() of the
                                       # base (unfocused) spec
        "focus_values_nm": [...],      # the full grid, both axes
        "dose_values": [...],
        "tolerance": 0.1
      },
      "derived": {             # measured once, pinned for resumed runs
        "cd_row": 123,             # CD-extraction row (auto-tracked rows
                                   # must survive a resume unchanged)
        "target_cd_nm": 45.0
      },
      "tile_cache": {          # optional: tile-result-cache counters,
        "tiles": 640, "hits": 560,   # summed across (resumed) runs so
        "zero_hits": 40, "misses": 40,   # campaign-report shows dedup
        "disk_loads": 0, "evictions": 0, # effectiveness from disk alone
        "disk_errors": 0
      },
      "completed": {           # condition id -> inline summary
        "f0.0_d1.0": {"focus_nm": 0.0, "dose": 1.0,
                       "cd_nm": 45.0, "file": "cond_f0.0_d1.0.npz"}
      }
    }

The inline ``cd_nm`` lets a resumed sweep rebuild the full focus-exposure
matrix without opening a single ``.npz``; the per-condition files carry the
full records for archival / downstream tooling.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..engine.cache import atomic_write
from ..layout.reader import source_digest

MANIFEST_FILE = "manifest.json"
COMPLETION_LOG_FILE = "completed.log"
MANIFEST_VERSION = 1

def condition_id(focus_nm: float, dose: float) -> str:
    """Exact, filename-safe identity of one (focus, dose) condition."""
    token = f"f{float(focus_nm)!r}_d{float(dose)!r}"
    return re.sub(r"[^A-Za-z0-9_.+-]", "_", token)


class CampaignIdentityError(RuntimeError):
    """The store directory belongs to a different campaign (or resume is off)."""


class CampaignStore:
    """Directory of per-condition records with an atomic, resumable manifest.

    Parameters
    ----------
    root:
        Store directory; created on first use.
    store_aerials:
        Also persist each focus's stitched aerial as an ``.npy`` memmap
        (``aerial_f<focus>.npy``).  Off by default: aerials are large and
        the CD records are the campaign's primary product.

    Typical lifecycle (what :class:`~repro.sweep.process_window.ProcessWindowSweep`
    does)::

        store = CampaignStore(path)
        store.begin(campaign_identity, resume=True)   # validates / creates
        for condition not in store.completed(): compute + store.record(...)
        table = store.completed()                     # id -> summary dict
    """

    def __init__(self, root: str, store_aerials: bool = False):
        self.root = str(root)
        self.store_aerials = bool(store_aerials)
        self._manifest: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # manifest lifecycle
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_FILE)

    @property
    def completion_log_path(self) -> str:
        return os.path.join(self.root, COMPLETION_LOG_FILE)

    def _load_manifest(self) -> Optional[dict]:
        if not os.path.exists(self.manifest_path):
            return None
        with open(self.manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        # Merge conditions completed since the last consolidation.  A kill
        # can tear the final line; an unparsable tail is simply not complete.
        if os.path.exists(self.completion_log_path):
            with open(self.completion_log_path, "r",
                      encoding="utf-8") as handle:
                for line in handle:
                    try:
                        appended = json.loads(line)
                    except ValueError:
                        break
                    manifest["completed"][appended["id"]] = appended["entry"]
        return manifest

    def read_manifest(self) -> dict:
        """Read-only view of the on-disk manifest, completion log merged in.

        For reporting tools (``repro.cli campaign-report``): no identity
        check, no consolidation, no writes — a store a live campaign is
        appending to can be reported safely at any instant.
        """
        manifest = self._load_manifest()
        if manifest is None:
            raise FileNotFoundError(
                f"{self.root} does not contain a campaign manifest "
                f"({MANIFEST_FILE})")
        return manifest

    def _append_completion(self, cond: str, entry: dict) -> None:
        """O(1) durable completion mark: one JSON line, flushed."""
        with open(self.completion_log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": cond, "entry": entry},
                                    sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _write_manifest(self) -> None:
        """Atomic rewrite: a kill mid-write leaves the previous manifest."""
        os.makedirs(self.root, exist_ok=True)
        with atomic_write(self.manifest_path) as handle:
            json.dump(self._manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def begin(self, campaign: dict, resume: bool = True) -> Dict[str, dict]:
        """Open the store for a campaign; returns the completed-condition map.

        ``campaign`` is the identity block of the manifest schema.  A fresh
        directory starts a new manifest.  An existing manifest must match the
        identity exactly; on match with ``resume=True`` the completed map is
        honoured, with ``resume=False`` — or on any mismatch — a
        :class:`CampaignIdentityError` explains what to do (point at a fresh
        directory, or pass ``resume`` to continue the interrupted campaign).
        """
        existing = self._load_manifest()
        if existing is None:
            self._manifest = {"version": MANIFEST_VERSION,
                              "campaign": dict(campaign),
                              "derived": {}, "completed": {}}
            self._write_manifest()
            return {}
        if not resume:
            raise CampaignIdentityError(
                f"{self.root} already contains a campaign manifest; pass "
                f"resume=True (CLI: --resume) to continue it, or use a "
                f"fresh store directory")
        if existing.get("campaign") != dict(campaign):
            raise CampaignIdentityError(
                f"the manifest in {self.root} records a different campaign "
                f"(layout, grid, optics, tiling or tolerance changed); use "
                f"a fresh store directory for a new campaign")
        self._manifest = existing
        # Consolidate: the log entries are in the manifest now, so rewrite
        # it once per session and truncate the log (atomic rewrite first —
        # a kill between the two just leaves idempotent duplicates).
        if os.path.exists(self.completion_log_path):
            self._write_manifest()
            os.unlink(self.completion_log_path)
        return dict(existing.get("completed", {}))

    def _require_open(self) -> dict:
        if self._manifest is None:
            raise RuntimeError("CampaignStore.begin() must be called first")
        return self._manifest

    # ------------------------------------------------------------------ #
    # derived values (pinned across resumed runs)
    # ------------------------------------------------------------------ #
    def get_derived(self, key: str):
        return self._require_open().get("derived", {}).get(key)

    def set_derived(self, key: str, value) -> None:
        """Persist a once-measured campaign value (``cd_row``, ``target_cd_nm``)."""
        manifest = self._require_open()
        if manifest["derived"].get(key) != value:
            manifest["derived"][key] = value
            self._write_manifest()

    # ------------------------------------------------------------------ #
    # tile-result-cache accounting
    # ------------------------------------------------------------------ #
    def record_tile_cache_stats(self, stats: Dict[str, int]) -> None:
        """Accumulate one run's own tile-cache counters into the manifest.

        Counters sum across resumed runs of the campaign, so the manifest's
        ``tile_cache`` block reports dedup effectiveness for the campaign as
        a whole and ``campaign-report`` renders it with zero recomputation.
        """
        manifest = self._require_open()
        totals = manifest.setdefault("tile_cache", {})
        for key, value in stats.items():
            totals[key] = int(totals.get(key, 0)) + int(value)
        self._write_manifest()

    # ------------------------------------------------------------------ #
    # condition records
    # ------------------------------------------------------------------ #
    def completed(self) -> Dict[str, dict]:
        """Condition id -> inline summary (``focus_nm`` / ``dose`` / ``cd_nm``)."""
        return dict(self._require_open().get("completed", {}))

    def __len__(self) -> int:
        return len(self._require_open().get("completed", {}))

    def record(self, focus_nm: float, dose: float, cd_nm: float,
               threshold: float) -> str:
        """Persist one completed condition; marks it complete durably, O(1).

        The ``.npz`` record is written first, the completion-log append
        second — so the store never marks complete a record that is not
        fully on disk, and a campaign of thousands of conditions never
        rewrites its whole manifest per condition.
        """
        manifest = self._require_open()
        cond = condition_id(focus_nm, dose)
        filename = f"cond_{cond}.npz"
        np.savez_compressed(os.path.join(self.root, filename),
                            focus_nm=np.asarray(float(focus_nm)),
                            dose=np.asarray(float(dose)),
                            cd_nm=np.asarray(float(cd_nm)),
                            threshold=np.asarray(float(threshold)))
        entry = {"focus_nm": float(focus_nm), "dose": float(dose),
                 "cd_nm": float(cd_nm), "file": filename}
        manifest["completed"][cond] = entry
        self._append_completion(cond, entry)
        return cond

    def load_record(self, focus_nm: float, dose: float) -> Dict[str, float]:
        """Reload one condition's full record from its ``.npz`` file."""
        entry = self._require_open()["completed"].get(
            condition_id(focus_nm, dose))
        if entry is None:
            raise KeyError(f"condition ({focus_nm}, {dose}) is not complete")
        with np.load(os.path.join(self.root, entry["file"])) as data:
            return {key: float(data[key]) for key in data.files}

    # ------------------------------------------------------------------ #
    # optional per-focus aerials
    # ------------------------------------------------------------------ #
    def aerial_path(self, focus_nm: float) -> str:
        token = re.sub(r"[^A-Za-z0-9_.+-]", "_", f"{float(focus_nm)!r}")
        return os.path.join(self.root, f"aerial_f{token}.npy")

    def save_aerial(self, focus_nm: float, aerial: np.ndarray) -> Optional[str]:
        """Persist one focus's stitched aerial (when ``store_aerials``)."""
        if not self.store_aerials:
            return None
        path = self.aerial_path(focus_nm)
        out = np.lib.format.open_memmap(path, mode="w+",
                                        dtype=aerial.dtype,
                                        shape=aerial.shape)
        out[...] = aerial
        out.flush()
        return path

    def load_aerial(self, focus_nm: float, mmap_mode: str = "r") -> np.ndarray:
        return np.load(self.aerial_path(focus_nm), mmap_mode=mmap_mode)

    # ------------------------------------------------------------------ #
    # campaign identity helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def campaign_identity(layout, focus_values_nm: Iterable[float],
                          dose_values: Iterable[float], tolerance: float,
                          optics_fingerprint: str,
                          tile_px: Optional[int] = None,
                          guard_px: Optional[int] = None) -> Tuple[dict, str]:
        """The manifest identity block for a sweep (and the layout digest).

        ``layout`` is a dense raster (hashed byte-for-byte) or a windowed
        :class:`repro.layout.LayoutReader` (its canonical shape digest —
        the raster is never materialised just to identify the campaign).

        ``tile_px`` / ``guard_px`` are the *requested* tiling overrides
        (``None`` = the engine defaults, which are a pure function of the
        optics fingerprint): guard width changes seam behaviour and hence
        CDs, so a resume under different tiling must be refused, not mixed.
        """
        digest = source_digest(layout)
        return ({"layout_sha256": digest,
                 "layout_shape": [int(s) for s in layout.shape],
                 "optics_fingerprint": optics_fingerprint,
                 "focus_values_nm": [float(f) for f in focus_values_nm],
                 "dose_values": [float(d) for d in dose_values],
                 "tolerance": float(tolerance),
                 "tile_px": None if tile_px is None else int(tile_px),
                 "guard_px": None if guard_px is None else int(guard_px)},
                digest)
