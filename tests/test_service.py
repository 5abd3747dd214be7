"""The campaign service: HTTP round trips, shared caches and pool, kill/resume.

The acceptance properties of the service PR, each pinned directly:

* a campaign submitted over HTTP produces bit-for-bit the CD matrix of the
  same campaign run serially in-process,
* concurrent campaigns share the process-wide kernel-bank machinery — two
  campaigns over the same optics leave one set of bank files, not two,
* concurrent campaigns — whatever the layout source — run side by side on
  the manager's one campaign pool, visibly (``/healthz``
  ``queue.submitted``),
* a server killed mid-campaign (SIGKILL, no cleanup) recomputes exactly the
  remainder on restart, and
* a stored ``request.json`` the manager cannot run (such as one carrying the
  removed ``streaming`` / ``compute.scheduler`` keys) recovers as a failed
  job while the other campaigns resume.
"""

import glob
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.api as api
from repro.backend import ComputeConfig
from repro.layout.sources import synthesize_layout_mask
from repro.optics.simulator import OpticsConfig
from repro.service import (
    CampaignJob,
    CampaignManager,
    CampaignRequest,
    CampaignServer,
    ServiceClient,
    ServiceError,
)
from repro.sweep import (
    CampaignStore,
    ProcessWindowSweep,
    load_campaign_report,
    report_as_dict,
)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
HIER4 = os.path.join(os.path.dirname(__file__), "data", "hier4.gds")

FOCI = [-40.0, 0.0, 40.0]
DOSES = [0.95, 1.0, 1.05]
COMPUTE_JSON = {"fft_backend": "numpy", "precision": "float64"}
#: 96 px at 32 px tiles: 36 guard-banded tiles per focus.
MULTI_TILE = {"layout": {"kind": "synthetic", "family": "B2m",
                         "width_px": 96, "height_px": 96, "seed": 1},
              "optics": {"tile_size_px": 32, "pixel_size_nm": 8.0}}


def make_request(seed: int = 0, **overrides) -> dict:
    request = {
        "layout": {"kind": "synthetic", "family": "B2m", "width_px": 64,
                   "height_px": 64, "seed": seed},
        "optics": {"tile_size_px": 64, "pixel_size_nm": 8.0},
        "grid": {"focus_nm": FOCI, "dose": DOSES},
        "compute": dict(COMPUTE_JSON),
        "tolerance": 0.2,
    }
    request.update(overrides)
    return request


@pytest.fixture()
def server(tmp_path):
    with CampaignServer(str(tmp_path / "svc"), campaign_workers=2) as svc:
        yield svc


class TestRequestValidation:
    def test_rejects_unknown_fields_and_missing_blocks(self):
        with pytest.raises(ValueError, match="unknown request field"):
            CampaignRequest.from_dict(make_request(bogus=1))
        with pytest.raises(ValueError, match="grid"):
            CampaignRequest.from_dict(
            {"layout": {"kind": "array", "data": [[1.0]]},
             "optics": {"tile_size_px": 32}})
        with pytest.raises(ValueError, match="layout.kind"):
            CampaignRequest.from_dict(
                make_request(layout={"kind": "hologram"}))

    BAD_BLOCKS = [
        ({"optics": {"tile_size_px": 32, "bogus": 1}}, "invalid optics: "),
        ({"optics": {"tile_size_px": "x"}}, "invalid optics: "),
        ({"optics": {"tile_size_px": 32, "source": "nonesuch"}},
         "invalid optics.source: "),
        ({"grid": {"focus_nm": ["a"], "dose": DOSES}}, "invalid grid: "),
        ({"grid": {"focus_nm": FOCI, "dose": [None]}}, "invalid grid: "),
        ({"tolerance": 1.5}, "tolerance must be in "),
        ({"target_cd_nm": -5}, "target_cd_nm must be positive"),
        ({"optics": {"tile_size_px": 32, "pixel_size_nm": 8.0},
          "guard_px": 40}, "invalid guard_px: guard band 40 px"),
        # One spelling of the compute policy: an object, never JSON text.
        ({"compute": json.dumps(COMPUTE_JSON)},
         "compute must be a JSON object, got str"),
        ({"compute": ["numpy"]}, "compute must be a JSON object, got list"),
        # Names inside the object resolve at submit, not in the job.
        ({"compute": {"fft_backend": "nosuch"}},
         "invalid compute: unknown FFT backend 'nosuch'"),
        ({"compute": {"fft_backend": "fakegpu"}},
         "invalid compute: unknown FFT backend 'fakegpu'"),
        ({"compute": {"precision": "float16"}},
         "invalid compute: unknown precision 'float16'"),
    ]

    @pytest.mark.parametrize("overrides,message", BAD_BLOCKS)
    def test_builds_what_it_will_run(self, overrides, message):
        """Block and field *contents* fail at parse time, naming the block
        or field, before anything is imaged."""
        with pytest.raises(ValueError, match=message):
            CampaignRequest.from_dict(make_request(**overrides))

    @pytest.mark.parametrize("overrides,message", BAD_BLOCKS)
    def test_bad_block_is_a_400_with_nothing_on_disk(self, server, overrides,
                                                     message):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(server.url).submit(make_request(**overrides))
        assert excinfo.value.status == 400
        assert message in str(excinfo.value)
        assert os.listdir(server.manager.campaigns_dir) == []

    def test_resolves_layouts_like_the_cli(self):
        parsed = CampaignRequest.from_dict(make_request(seed=3))
        layout = parsed.resolve_layout()
        expected = synthesize_layout_mask(64, 64, 64, 8.0, "B2m", 3)
        np.testing.assert_array_equal(layout, expected)


class TestHttpRoundTrip:
    def test_served_campaign_matches_serial_bit_for_bit(self, server,
                                                        tmp_path):
        client = ServiceClient(server.url)
        assert client.health()["status"] == "ok"
        job = client.submit(make_request())
        final = client.wait(job["id"])
        assert final["state"] == "completed", final["error"]
        assert final["computed_conditions"] == len(FOCI) * len(DOSES)
        served = client.report(job["id"], format="json")

        serial_store = str(tmp_path / "serial")
        api.sweep_window(synthesize_layout_mask(64, 64, 64, 8.0, "B2m", 0),
                         OpticsConfig(tile_size_px=64, pixel_size_nm=8.0),
                         focus_nm=FOCI, dose=DOSES, tolerance=0.2,
                         compute=ComputeConfig(**COMPUTE_JSON),
                         store=serial_store)
        serial = report_as_dict(api.open_campaign(serial_store))
        # bit-for-bit: the exact float CD values, not approximate equality
        assert served["cd_matrix"] == serial["cd_matrix"]
        assert served["window"] == serial["window"]

        html = client.report(job["id"], format="html")
        assert "<table" in html and "CD" in html
        text = client.report(job["id"], format="text")
        assert "focus" in text.lower()

    def test_status_listing_and_errors(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.status("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"layout": {"kind": "array"}})
        assert excinfo.value.status == 400
        job = client.submit(make_request())
        assert any(entry["id"] == job["id"] for entry in client.list())
        client.wait(job["id"])

    def test_cancel_settles_the_job(self, server):
        client = ServiceClient(server.url)
        job = client.submit(make_request())
        client.cancel(job["id"])
        final = client.wait(job["id"])
        assert final["state"] in ("cancelled", "completed")

    def test_thumbnails_served_for_stored_aerials(self, server):
        client = ServiceClient(server.url)
        job = client.submit(make_request(store_aerials=True))
        client.wait(job["id"])
        report = client.report(job["id"], format="json")
        assert report["aerials"]
        pgm = client.thumbnail(job["id"], report["aerials"][0])
        assert pgm.startswith(b"P5")


class TestSharedKernelCache:
    def test_concurrent_campaigns_share_bank_files(self, tmp_path):
        with CampaignServer(str(tmp_path / "svc"),
                            campaign_workers=2) as server:
            client = ServiceClient(server.url)
            # same optics, different layouts: the kernel banks must be
            # decomposed once per focus, not once per campaign
            first = client.submit(make_request(**MULTI_TILE))
            second = client.submit(make_request(
                **dict(MULTI_TILE, layout=dict(MULTI_TILE["layout"],
                                               seed=9))))
            assert client.wait(first["id"])["state"] == "completed"
            assert client.wait(second["id"])["state"] == "completed"
            banks = glob.glob(os.path.join(server.manager.kernel_cache_dir,
                                           "kernels-*.npz"))
            assert len(banks) == len(FOCI)
            stats = client.health()["queue"]
            assert stats["submitted"] > 0


class TestSharedWorkerPool:
    def test_concurrent_gds_campaigns_shard_on_the_pool(self, tmp_path):
        """Reader layouts image through ``image_layout``: two concurrent
        campaigns over a ``.gds`` run side by side on the manager's pool
        (``campaign_workers=2``, the ``queue`` block of ``/healthz``) and
        both finish bit for bit the serial result."""
        request = make_request(layout={"kind": "file", "path": HIER4},
                               optics={"tile_size_px": 32,
                                       "pixel_size_nm": 8.0},
                               target_cd_nm=64.0, guard_px=8)
        with CampaignServer(str(tmp_path / "svc"),
                            campaign_workers=2) as server:
            client = ServiceClient(server.url)
            before = client.health()["queue"]["submitted"]
            jobs = [client.submit(request) for _ in range(2)]
            finals = [client.wait(job["id"]) for job in jobs]
            assert [final["state"] for final in finals] == ["completed"] * 2, \
                [final["error"] for final in finals]
            served = [client.report(job["id"], format="json")
                      for job in jobs]
            queue = client.health()["queue"]
        assert queue["submitted"] == before + 2   # one task per campaign
        assert queue["num_workers"] == 2

        serial_store = str(tmp_path / "serial")
        api.sweep_window(HIER4,
                         OpticsConfig(tile_size_px=32, pixel_size_nm=8.0),
                         focus_nm=FOCI, dose=DOSES, tolerance=0.2,
                         target_cd_nm=64.0, guard_px=8,
                         compute=ComputeConfig(**COMPUTE_JSON),
                         store=serial_store)
        serial = report_as_dict(api.open_campaign(serial_store))
        for report in served:
            assert report["cd_matrix"] == serial["cd_matrix"]
            assert report["window"] == serial["window"]


def durably_completed(store_dir):
    """Conditions the store has marked complete (manifest + completion log).

    Not a count of ``cond_*.npz`` files: a record exists a moment before its
    completion-log line, and a kill landing in between leaves a file the
    resume rightly recomputes.
    """
    try:
        return len(CampaignStore(store_dir).read_manifest()["completed"])
    except FileNotFoundError:
        return 0


class TestKillAndResume:
    def test_sigkilled_server_recomputes_exactly_the_remainder(self,
                                                               tmp_path):
        data_dir = str(tmp_path / "svc")
        total = len(FOCI) * len(DOSES)
        # Phase 1: a real server process, SIGKILLed mid-campaign.
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.cli import main\n"
            "main(['serve', '--data-dir', {data!r}, '--port', '0'])\n"
        ).format(src=SRC_DIR, data=data_dir)
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            url = next(tok for tok in banner.split()
                       if tok.startswith("http://"))
            client = ServiceClient(url)
            # a slower campaign (multi-tile layout) so the kill lands mid-run
            request = make_request(layout={"kind": "synthetic",
                                           "family": "B2m", "width_px": 96,
                                           "height_px": 96, "seed": 1},
                                   optics={"tile_size_px": 32,
                                           "pixel_size_nm": 8.0})
            job = client.submit(request)
            store_dir = os.path.join(data_dir, "campaigns", job["id"])
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if durably_completed(store_dir) >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("campaign never stored a condition")
        finally:
            proc.kill()  # SIGKILL: no atexit, no manifest consolidation
            proc.wait(timeout=10)

        completed_before = durably_completed(store_dir)
        assert 0 < completed_before  # the kill landed after >= 1 condition

        # Phase 2: restart over the same data dir; recovery must compute
        # exactly the remainder.
        with CampaignServer(data_dir, campaign_workers=1) as server:
            client = ServiceClient(server.url)
            final = client.wait(job["id"], timeout=240)
            assert final["state"] == "completed", final["error"]
            assert final["resumed"] is True
            if completed_before < total:
                assert final["computed_conditions"] == \
                    total - completed_before
                assert final["resumed_conditions"] == completed_before
            else:  # campaign finished before the kill: nothing recomputed
                assert final["computed_conditions"] == 0
            report = client.report(job["id"], format="json")
            assert report["progress"]["complete"] is True

    def test_manager_recovery_marks_finished_campaigns_completed(self,
                                                                 tmp_path):
        data_dir = str(tmp_path / "svc")
        manager = CampaignManager(data_dir, campaign_workers=1)
        try:
            job = manager.submit(make_request())
            manager.wait(job.id)
        finally:
            manager.close()
        revived = CampaignManager(data_dir, campaign_workers=1)
        try:
            recovered = revived.get(job.id)
            assert recovered is not None
            assert recovered.state == "completed"
            assert recovered.computed_conditions == 0  # nothing re-imaged
        finally:
            revived.close()


class TestJobProgress:
    def test_progress_is_the_reports(self, tmp_path):
        """A partial store: the status endpoint's progress is the campaign
        report's completion count, not a second reading of the manifest."""
        store_dir = str(tmp_path / "partial")
        identity, _ = CampaignStore.campaign_identity(
            np.zeros((8, 8)), FOCI, DOSES, 0.2, "fingerprint")
        store = CampaignStore(store_dir)
        store.begin(identity, resume=True)
        store.record(0.0, 1.0, 100.0, 0.225)
        store.record(40.0, 0.95, 120.0, 0.237)
        report = load_campaign_report(store_dir)
        job = CampaignJob(id="partial", request={}, store_dir=store_dir)
        assert job.as_dict()["progress"] == {
            "completed": report.completed_conditions,
            "total": report.total_conditions}
        assert report.completed_conditions == 2 and not report.is_complete


class TestStoredRequestRejection:
    def test_rejected_request_fails_and_the_others_resume(self, tmp_path):
        """A data dir holding a half-done campaign whose ``request.json``
        carries the removed ``streaming`` / ``compute.scheduler`` keys and a
        half-done valid one: the manager starts, the legacy job is
        ``failed`` naming the key, the valid one computes the remainder."""
        legacy = make_request(streaming=True, **MULTI_TILE)
        legacy["compute"]["scheduler"] = "service"
        valid = make_request(**MULTI_TILE)
        total = len(FOCI) * len(DOSES)

        # 4 of the 9 conditions of each, stored the way the service does.
        data_dir = str(tmp_path / "svc")
        parsed = CampaignRequest.from_dict(valid)
        for job_id, request in (("legacy", legacy), ("valid", valid)):
            store_dir = os.path.join(data_dir, "campaigns", job_id)
            done = []

            def stop_part_way(focus, dose, cd):
                done.append((focus, dose))
                if len(done) == 4:
                    raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                ProcessWindowSweep(parsed.optics_config(),
                                   compute=parsed.compute).run(
                    parsed.resolve_layout(),
                    grid=parsed.focus_exposure_grid(),
                    tolerance=parsed.tolerance, store=store_dir,
                    progress=stop_part_way)
            with open(os.path.join(store_dir, "request.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(request, handle)

        manager = CampaignManager(data_dir, campaign_workers=1)
        try:
            failed = manager.get("legacy")
            assert failed.state == "failed"
            assert failed.error.startswith("stored request.json rejected: ")
            assert "streaming" in failed.error
            assert failed.as_dict()["progress"] == {"completed": 4,
                                                    "total": total}
            job = manager.wait("valid")
            assert job.state == "completed", job.error
            assert job.computed_conditions == total - 4
            assert job.resumed_conditions == 4
        finally:
            manager.close()
        assert durably_completed(os.path.join(data_dir, "campaigns",
                                              "legacy")) == 4

    def test_a_stored_removed_backend_fails_and_the_server_starts(
            self, tmp_path):
        """A campaign stored before the ``fakegpu`` backend was removed comes
        back ``failed``, naming the backend; the server still serves."""
        data_dir = tmp_path / "svc"
        store_dir = data_dir / "campaigns" / "device"
        store_dir.mkdir(parents=True)
        request = make_request(compute={"fft_backend": "fakegpu"})
        (store_dir / "request.json").write_text(json.dumps(request))
        with CampaignServer(str(data_dir), campaign_workers=1) as svc:
            client = ServiceClient(svc.url)
            assert client.health()["status"] == "ok"
            status = client.status("device")
        assert status["state"] == "failed"
        assert status["error"].startswith("stored request.json rejected: ")
        assert "unknown FFT backend 'fakegpu'" in status["error"]

    def test_removed_keys_get_the_typed_rejection(self):
        with pytest.raises(ValueError, match="unknown request field.*streaming"):
            CampaignRequest.from_dict(make_request(streaming=True))
        with pytest.raises(ValueError,
                           match="unknown ComputeConfig field.*scheduler"):
            CampaignRequest.from_dict(
                make_request(compute={"scheduler": "pool"}))
