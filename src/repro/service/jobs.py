"""Campaign jobs: parse a service request, run it, persist it, resume it.

The durable unit is a *campaign directory* under the service's data dir:
``<data_dir>/campaigns/<id>/`` holds the submitted ``request.json`` next to
the ordinary resumable :class:`~repro.sweep.store.CampaignStore` files
(manifest, completion log, per-condition ``.npz`` records, optional aerial
memmaps).  Because the store is the same one ``repro sweep-window --store``
writes, every durability property carries over unchanged: a SIGKILLed
server loses nothing that was completed, and on restart the manager replays
``request.json`` with ``resume=True`` so exactly the remaining conditions
are computed.

Requests are plain JSON::

    {
      "layout":  {"kind": "synthetic", "family": "B2m", "width_px": 192,
                  "height_px": 128, "seed": 0}
               | {"kind": "file", "path": "chip.npy"}      (server-local)
               | {"kind": "array", "data": [[0, 1, ...], ...]},
      "optics":  {"tile_size_px": 32, "pixel_size_nm": 8.0,
                  "source": "annular"},                     (source optional)
      "grid":    {"focus_nm": [-40, 0, 40], "dose": [0.95, 1.0, 1.05]},
      "compute": {"fft_backend": ..., "precision": ...},    (optional object)
      "tolerance": 0.1, "target_cd_nm": null, "guard_px": null,
      "store_aerials": false                                (all optional)
    }

An incomplete campaign's ``request.json`` is replayed through the same
validation as a fresh submission.  One this release cannot run (an unknown
key such as the removed ``streaming`` / ``compute.scheduler``, malformed
JSON) recovers as a ``failed`` job whose error names the problem; the other
campaigns in the data dir still resume.  Job progress and the restart
completeness check read the store through
:func:`~repro.sweep.report.load_campaign_report`, the same view
``campaign-report`` renders.

Scheduling: the manager's one :class:`WorkerPool` runs the campaigns,
``campaign_workers`` at a time, each on one of its threads; inside a
campaign every imaging call spends the request's worker budget
(``compute.fft_workers``) on its tiles (:mod:`repro.engine.batched`).
Concurrent campaigns share the process-wide kernel-bank cache and one disk
cache dir.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..backend import ComputeConfig
from ..engine.cache import atomic_write
from ..engine.sharded import ShardedExecutor
from ..engine.tiling import TilingSpec
from ..layout.sources import load_layout_source, synthesize_layout_mask
from ..optics.simulator import OpticsConfig
from ..optics.source import make_source
from ..sweep import (
    CampaignStore,
    FocusExposureGrid,
    ProcessWindowSweep,
    check_window_targets,
    load_campaign_report,
)

__all__ = [
    "CampaignCancelled",
    "CampaignJob",
    "CampaignManager",
    "CampaignRequest",
    "JOB_STATES",
]

JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")
#: Seconds between job-table reads in :meth:`CampaignManager.wait`.
WAIT_POLL_S = 0.05


class CampaignCancelled(Exception):
    """Raised inside a sweep's progress callback to stop a cancelled job."""


@dataclass(frozen=True)
class CampaignRequest:
    """A validated campaign submission (see the module docstring schema)."""

    layout: Dict[str, Any]
    optics: Dict[str, Any]
    grid: Dict[str, Any]
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    tolerance: float = 0.1
    target_cd_nm: Optional[float] = None
    guard_px: Optional[int] = None
    store_aerials: bool = False

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignRequest":
        if not isinstance(data, dict):
            raise ValueError("campaign request must be a JSON object")
        known = {"layout", "optics", "grid", "compute", "tolerance",
                 "target_cd_nm", "guard_px", "store_aerials"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown request field(s) {', '.join(unknown)}; known "
                f"fields: {', '.join(sorted(known))}")
        for required in ("layout", "optics", "grid"):
            if required not in data:
                raise ValueError(f"campaign request needs a {required!r} block")
        layout = dict(data["layout"])
        kind = layout.get("kind")
        if kind not in ("synthetic", "file", "array"):
            raise ValueError(
                f"layout.kind must be synthetic, file or array, got {kind!r}")
        grid = dict(data["grid"])
        for axis in ("focus_nm", "dose"):
            values = grid.get(axis)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid.{axis} must be a non-empty list")
        optics = dict(data["optics"])
        if "tile_size_px" not in optics:
            raise ValueError("optics.tile_size_px is required")
        target = data.get("target_cd_nm")
        compute = data.get("compute")
        request = cls(
            layout=layout, optics=optics, grid=grid,
            compute=ComputeConfig.from_dict({} if compute is None else compute),
            tolerance=float(data.get("tolerance", 0.1)),
            target_cd_nm=float(target) if target else None,
            guard_px=int(data["guard_px"])
            if data.get("guard_px") is not None else None,
            store_aerials=bool(data.get("store_aerials", False)))
        check_window_targets(request.target_cd_nm, request.tolerance)
        # Build everything the job will build, now: a bad block is the
        # submitter's 400, not a failed job found by polling.
        for block, build in (("optics", request.optics_config),
                             ("optics.source", request.source),
                             ("grid", request.focus_exposure_grid),
                             ("compute", request.compute.resolve),
                             ("guard_px", lambda: request.guard_px is None or
                              TilingSpec(int(optics["tile_size_px"]),
                                         request.guard_px))):
            try:
                build()
            except (TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"invalid {block}: {exc}") from exc
        return request

    # -- resolution ----------------------------------------------------- #
    def optics_config(self) -> OpticsConfig:
        kwargs = {key: value for key, value in self.optics.items()
                  if key not in ("source",)}
        return OpticsConfig(**kwargs)

    def source(self):
        name = self.optics.get("source")
        return make_source(name) if name else None

    def focus_exposure_grid(self) -> FocusExposureGrid:
        return FocusExposureGrid.from_sequences(
            [float(value) for value in self.grid["focus_nm"]],
            [float(value) for value in self.grid["dose"]])

    def resolve_layout(self) -> np.ndarray:
        layout = self.layout
        kind = layout["kind"]
        pixel_size_nm = float(self.optics.get("pixel_size_nm", 4.0))
        if kind == "file":
            return load_layout_source(layout["path"], pixel_size_nm)
        if kind == "array":
            mask = np.asarray(layout["data"], dtype=float)
            if mask.ndim != 2:
                raise ValueError("layout.data must be a 2-D array")
            return mask
        return synthesize_layout_mask(
            int(layout.get("height_px", 128)), int(layout.get("width_px", 128)),
            int(self.optics["tile_size_px"]), pixel_size_nm,
            str(layout.get("family", "B2m")), int(layout.get("seed", 0)))


@dataclass
class CampaignJob:
    """One campaign's lifecycle bookkeeping (the durable part is on disk)."""

    id: str
    request: Dict[str, Any]
    store_dir: str
    state: str = "queued"
    error: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Conditions imaged by the most recent run vs served from the store —
    #: the resume arithmetic the service-smoke CI job grep-pins.
    computed_conditions: Optional[int] = None
    resumed_conditions: Optional[int] = None
    resumed: bool = False
    cancel_event: threading.Event = field(default_factory=threading.Event,
                                          repr=False)

    def as_dict(self) -> Dict[str, Any]:
        """The JSON the status endpoint returns (plus live store progress)."""
        progress = {"completed": 0, "total": None}
        try:
            report = load_campaign_report(self.store_dir)
            progress = {"completed": report.completed_conditions,
                        "total": report.total_conditions}
        except FileNotFoundError:
            pass
        return {
            "id": self.id,
            "state": self.state,
            "error": self.error,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "computed_conditions": self.computed_conditions,
            "resumed_conditions": self.resumed_conditions,
            "resumed": self.resumed,
            "progress": progress,
            "store_dir": self.store_dir,
        }


class WorkerPool:
    """The threads campaigns run on, with lifetime counters (the ``queue``
    block of ``/healthz``)."""

    def __init__(self, threads: int):
        self.threads = int(threads)
        self._executor = ThreadPoolExecutor(max_workers=self.threads,
                                            thread_name_prefix="repro-campaign")
        self._lock = threading.Lock()
        #: Lifetime counters (monotonic; cancelled futures count as
        #: completed once they settle).
        self.submitted = 0
        self.completed = 0

    def submit(self, fn: Callable, *args) -> Future:
        with self._lock:
            future = self._executor.submit(fn, *args)
            self.submitted += 1
        future.add_done_callback(self._settled)
        return future

    def _settled(self, future: Future) -> None:
        with self._lock:
            self.completed += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"num_workers": self.threads,
                    "submitted": self.submitted,
                    "completed": self.completed}

    def shutdown(self, wait: bool = True) -> None:
        """Stop the threads; queued-but-unstarted work is cancelled."""
        self._executor.shutdown(wait=wait, cancel_futures=True)


class CampaignManager:
    """Owns the job table, the campaign pool and the data dir.

    ``campaign_workers`` sizes the :class:`WorkerPool` the campaigns run
    on (``self.queue``): that many run at once, the rest wait queued.  On
    construction the manager scans the data dir and re-enqueues every
    incomplete campaign with ``resume=True`` — the restart half of the
    kill/resume guarantee; a stored request it cannot run becomes a
    ``failed`` job instead.
    """

    def __init__(self, data_dir: str, campaign_workers: int = 2):
        if campaign_workers < 1:
            raise ValueError("campaign_workers must be at least 1")
        self.data_dir = str(data_dir)
        self.campaigns_dir = os.path.join(self.data_dir, "campaigns")
        self.kernel_cache_dir = os.path.join(self.data_dir, "kernel-cache")
        os.makedirs(self.campaigns_dir, exist_ok=True)
        os.makedirs(self.kernel_cache_dir, exist_ok=True)
        self.queue = WorkerPool(campaign_workers)
        self._jobs: Dict[str, CampaignJob] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._recover()

    # ------------------------------------------------------------------ #
    # submission / recovery
    # ------------------------------------------------------------------ #
    def submit(self, request: Dict[str, Any],
               job_id: Optional[str] = None,
               resume: bool = False) -> CampaignJob:
        """Validate, persist and enqueue one campaign; returns its job."""
        parsed = CampaignRequest.from_dict(request)  # fail before any I/O
        job_id = job_id or uuid.uuid4().hex[:12]
        store_dir = os.path.join(self.campaigns_dir, job_id)
        os.makedirs(store_dir, exist_ok=True)
        request_path = os.path.join(store_dir, "request.json")
        if not os.path.exists(request_path):
            with atomic_write(request_path) as handle:
                json.dump(request, handle, indent=2, sort_keys=True)
        job = CampaignJob(id=job_id, request=request, store_dir=store_dir,
                          resumed=resume)
        with self._lock:
            if self._closed:
                raise RuntimeError("campaign manager is closed")
            if job_id in self._jobs and \
                    self._jobs[job_id].state in ("queued", "running"):
                raise ValueError(f"campaign {job_id!r} is already active")
            self._jobs[job_id] = job
        self.queue.submit(self._run, job, parsed, resume)
        return job

    def _recover(self) -> None:
        """Re-enqueue every incomplete on-disk campaign (restart path)."""
        for job_id in sorted(os.listdir(self.campaigns_dir)):
            store_dir = os.path.join(self.campaigns_dir, job_id)
            request_path = os.path.join(store_dir, "request.json")
            if not os.path.isfile(request_path):
                continue
            try:
                report = load_campaign_report(store_dir)
            except FileNotFoundError:
                report = None
            request = None
            try:
                with open(request_path, "r", encoding="utf-8") as handle:
                    request = json.load(handle)
                if report is None or not report.is_complete:
                    self.submit(request, job_id=job_id, resume=True)
                    continue
                job = CampaignJob(id=job_id, request=request,
                                  store_dir=store_dir, state="completed",
                                  resumed=True, computed_conditions=0,
                                  resumed_conditions=report.completed_conditions)
            except (OSError, TypeError, ValueError) as exc:
                # One campaign this release cannot run must not keep the
                # server from starting (or the others from resuming).
                job = CampaignJob(id=job_id, request=request,
                                  store_dir=store_dir, state="failed",
                                  resumed=True,
                                  error=f"stored request.json rejected: {exc}")
            job.finished_at = time.time()
            with self._lock:
                self._jobs[job_id] = job

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _run(self, job: CampaignJob, parsed: CampaignRequest,
             resume: bool) -> None:
        if job.cancel_event.is_set():
            job.state = "cancelled"
            job.finished_at = time.time()
            return
        job.state = "running"
        job.started_at = time.time()
        compute = parsed.compute
        executor = ShardedExecutor(cache_dir=self.kernel_cache_dir)
        try:
            layout = parsed.resolve_layout()
            sweep = ProcessWindowSweep(parsed.optics_config(),
                                       source=parsed.source(),
                                       executor=executor, compute=compute)
            store = CampaignStore(job.store_dir,
                                  store_aerials=parsed.store_aerials)

            def progress(focus: float, dose: float, cd: float) -> None:
                if job.cancel_event.is_set():
                    raise CampaignCancelled(job.id)

            outcome = sweep.run(layout, target_cd_nm=parsed.target_cd_nm,
                                grid=parsed.focus_exposure_grid(),
                                tolerance=parsed.tolerance,
                                guard_px=parsed.guard_px,
                                store=store, resume=resume,
                                progress=progress)
            job.computed_conditions = outcome.computed_conditions
            job.resumed_conditions = outcome.skipped_conditions
            job.state = "completed"
        except CampaignCancelled:
            job.state = "cancelled"
        except Exception as exc:  # noqa: BLE001 - job error surface
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            job.finished_at = time.time()
            executor.close()

    # ------------------------------------------------------------------ #
    # inspection / control
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Optional[CampaignJob]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[CampaignJob]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created_at)

    def cancel(self, job_id: str) -> Optional[CampaignJob]:
        """Request cancellation; granularity is one condition (persisted
        conditions survive, so a cancelled campaign can be resubmitted and
        resumes)."""
        job = self.get(job_id)
        if job is None:
            return None
        job.cancel_event.set()
        if job.state == "queued":
            job.state = "cancelled"
            job.finished_at = time.time()
        return job

    def wait(self, job_id: str, timeout: float = 60.0) -> CampaignJob:
        """Block until a job settles (tests / CLI convenience)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state in ("completed", "failed", "cancelled"):
                return job
            time.sleep(WAIT_POLL_S)
        raise TimeoutError(f"campaign {job_id} still "
                           f"{self.get(job_id).state} after {timeout}s")

    def close(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
        self.queue.shutdown(wait=wait)
