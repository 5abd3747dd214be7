"""The campaign service's HTTP surface (stdlib ``http.server`` only).

Endpoints::

    GET    /healthz                      liveness + campaign-pool stats
    POST   /campaigns                    submit a campaign (JSON request)
    GET    /campaigns                    list jobs
    GET    /campaigns/{id}               one job's status
    DELETE /campaigns/{id}               request cancellation
    GET    /campaigns/{id}/report        the stored campaign, zero recompute
                                         (?format=json|html|text, default json)
    GET    /campaigns/{id}/thumbnails/{token}
                                         one stored aerial as an 8-bit PGM

Reports are rendered straight from the on-disk :class:`CampaignStore`
manifest — the exact files ``repro campaign-report`` reads — so serving a
report never re-images anything, even for a campaign that is still running
(the CD table just shows pending cells).

The server is a ``ThreadingHTTPServer``: request handling must not block on
campaign execution, which lives on the manager's campaign pool.  Bind to
port 0 to let the OS pick (tests).
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..sweep import (
    load_campaign_report,
    render_campaign_report,
    render_campaign_report_html,
    render_campaign_report_json,
)
from ..sweep.report import save_aerial_thumbnails
from .jobs import CampaignManager

__all__ = ["CampaignServer", "serve"]

_MAX_REQUEST_BYTES = 64 * 1024 * 1024

_REPORT_RENDERERS = {
    "json": (render_campaign_report_json, "application/json"),
    "html": (render_campaign_report_html, "text/html; charset=utf-8"),
    "text": (render_campaign_report, "text/plain; charset=utf-8"),
}


class _CampaignRequestHandler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``server.manager``."""

    server_version = "repro-campaign-service/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------- #
    @property
    def manager(self) -> CampaignManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "quiet", True):
            return
        super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_REQUEST_BYTES:
            raise ValueError(f"request body exceeds {_MAX_REQUEST_BYTES} bytes")
        return self.rfile.read(length) if length else b""

    def _route(self) -> Tuple[str, Tuple[str, ...], Dict[str, list]]:
        parsed = urlparse(self.path)
        parts = tuple(part for part in parsed.path.split("/") if part)
        return parsed.path, parts, parse_qs(parsed.query)

    # -- verbs ---------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        _, parts, query = self._route()
        try:
            if parts == ("healthz",):
                self._send_json(200, {"status": "ok",
                                      "queue": self.manager.queue.stats(),
                                      "campaigns": len(self.manager.jobs())})
            elif parts == ("campaigns",):
                self._send_json(200, {"campaigns": [
                    job.as_dict() for job in self.manager.jobs()]})
            elif len(parts) == 2 and parts[0] == "campaigns":
                self._get_campaign(parts[1])
            elif len(parts) == 3 and parts[0] == "campaigns" and \
                    parts[2] == "report":
                self._get_report(parts[1], query)
            elif len(parts) == 4 and parts[0] == "campaigns" and \
                    parts[2] == "thumbnails":
                self._get_thumbnail(parts[1], parts[3])
            else:
                self._error(404, f"no route for GET {self.path}")
        except BrokenPipeError:
            pass
        except Exception as exc:  # noqa: BLE001 - surface as HTTP 500
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802
        _, parts, _ = self._route()
        if parts != ("campaigns",):
            self._error(404, f"no route for POST {self.path}")
            return
        try:
            body = self._read_body()
            request = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return
        try:
            job = self.manager.submit(request)
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc))
            return
        except RuntimeError as exc:
            self._error(503, str(exc))
            return
        self._send_json(201, job.as_dict())

    def do_DELETE(self) -> None:  # noqa: N802
        _, parts, _ = self._route()
        if len(parts) == 2 and parts[0] == "campaigns":
            job = self.manager.cancel(parts[1])
            if job is None:
                self._error(404, f"no campaign {parts[1]!r}")
            else:
                self._send_json(200, job.as_dict())
        else:
            self._error(404, f"no route for DELETE {self.path}")

    # -- handlers ------------------------------------------------------- #
    def _get_campaign(self, job_id: str) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"no campaign {job_id!r}")
        else:
            self._send_json(200, job.as_dict())

    def _get_report(self, job_id: str, query: Dict[str, list]) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"no campaign {job_id!r}")
            return
        fmt = (query.get("format") or ["json"])[0].lower()
        if fmt not in _REPORT_RENDERERS:
            self._error(400, f"unknown report format {fmt!r}; choose "
                             f"{', '.join(sorted(_REPORT_RENDERERS))}")
            return
        try:
            report = load_campaign_report(job.store_dir)
        except FileNotFoundError:
            self._error(409, f"campaign {job_id!r} has not stored any "
                             "conditions yet (state: " + job.state + ")")
            return
        renderer, content_type = _REPORT_RENDERERS[fmt]
        self._send(200, renderer(report).encode("utf-8"), content_type)

    def _get_thumbnail(self, job_id: str, token: str) -> None:
        job = self.manager.get(job_id)
        if job is None:
            self._error(404, f"no campaign {job_id!r}")
            return
        report = load_campaign_report(job.store_dir)
        tokens = {tok for tok, _ in report.aerial_files()}
        if token not in tokens:
            self._error(404, f"campaign {job_id!r} has no stored aerial "
                             f"{token!r}")
            return
        directory = os.path.join(job.store_dir, "thumbnails")
        path = os.path.join(directory, f"aerial_f{token}.pgm")
        if not os.path.exists(path):  # rendered once, cached on disk
            save_aerial_thumbnails(report, directory)
        with open(path, "rb") as handle:
            self._send(200, handle.read(), "image/x-portable-graymap")


class CampaignServer:
    """Owns a :class:`CampaignManager` plus the threaded HTTP listener.

    ``port=0`` binds an ephemeral port (read it back from ``self.port``
    after construction) — the shape every in-process test uses.
    """

    def __init__(self, data_dir: str, host: str = "127.0.0.1", port: int = 0,
                 campaign_workers: int = 2, quiet: bool = True,
                 manager: Optional[CampaignManager] = None):
        self.manager = manager or CampaignManager(
            data_dir, campaign_workers=campaign_workers)
        self._httpd = ThreadingHTTPServer((host, port),
                                          _CampaignRequestHandler)
        self._httpd.daemon_threads = True
        self._httpd.manager = self.manager  # type: ignore[attr-defined]
        self._httpd.quiet = quiet  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CampaignServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-service-http",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` path)."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self.manager.close(wait=False)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "CampaignServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve(data_dir: str, host: str = "127.0.0.1", port: int = 8765,
          campaign_workers: int = 2, quiet: bool = False) -> None:
    """Blocking entry point behind ``repro serve``."""
    server = CampaignServer(data_dir, host=host, port=port,
                            campaign_workers=campaign_workers, quiet=quiet)
    print(f"campaign service listening on {server.url} "
          f"(data dir: {os.path.abspath(data_dir)})")
    server.serve_forever()
