"""Campaign jobs: parse a service request, run it, persist it, resume it.

The durable unit is a *campaign directory* under the service's data dir:
``<data_dir>/campaigns/<id>/`` holds the submitted ``request.json`` next to
the ordinary resumable :class:`~repro.sweep.store.CampaignStore` files
(manifest, completion log, optional aerial memmaps).  Because the store is
the same one ``repro sweep-window --store`` writes, every durability
property carries over unchanged: a SIGKILLed server loses nothing that was
completed, and on restart the manager replays ``request.json`` with
``resume=True`` so exactly the remaining conditions are computed.

A request is parsed at submit by
:meth:`~repro.sweep.campaign.CampaignRequest.from_dict` — the parse
``repro sweep-window`` runs on its flags — so a bad field is a 400, not a
failed job found by polling.  A stored ``request.json`` this release cannot
parse (such as one with the removed ``streaming`` key) recovers as a
``failed`` job naming the problem; the other campaigns still resume.  Job
progress and the restart completeness check read the store through
:func:`~repro.sweep.report.load_campaign_report`, as ``campaign-report``
does.

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

from ..engine.cache import atomic_write
from ..sweep import load_campaign_report
from ..sweep.campaign import CampaignRequest

__all__ = [
    "CampaignCancelled",
    "CampaignJob",
    "CampaignManager",
]


class CampaignCancelled(Exception):
    """Raised inside a sweep's progress callback to stop a cancelled job."""


@dataclass
class CampaignJob:
    """One campaign's lifecycle bookkeeping (the durable part is on disk)."""

    id: str
    store_dir: str
    state: str = "queued"
    error: Optional[str] = None
    created_at: float = field(init=False, default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Conditions imaged by the most recent run vs served from the store —
    #: the resume arithmetic the service-smoke CI job grep-pins.
    computed_conditions: Optional[int] = None
    resumed_conditions: Optional[int] = None
    resumed: bool = False
    cancel_event: threading.Event = field(init=False,
                                          default_factory=threading.Event,
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
        job = CampaignJob(id=job_id, store_dir=store_dir, resumed=resume)
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
            try:
                with open(request_path, "r", encoding="utf-8") as handle:
                    request = json.load(handle)
                if report is None or not report.is_complete:
                    self.submit(request, job_id=job_id, resume=True)
                    continue
                job = CampaignJob(id=job_id, store_dir=store_dir,
                                  state="completed",
                                  resumed=True, computed_conditions=0,
                                  resumed_conditions=report.completed_conditions)
            except (OSError, TypeError, ValueError) as exc:
                # One campaign this release cannot run must not keep the
                # server from starting (or the others from resuming).
                job = CampaignJob(id=job_id, store_dir=store_dir,
                                  state="failed", resumed=True,
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

        def progress(focus: float, dose: float, cd: float) -> None:
            if job.cancel_event.is_set():
                raise CampaignCancelled(job.id)

        try:
            outcome = parsed.run(job.store_dir, resume, self.kernel_cache_dir,
                                 progress)
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

    def close(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
        self.queue.shutdown(wait=wait)
