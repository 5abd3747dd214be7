"""A thin urllib client for the campaign service.

No third-party HTTP stack — ``urllib.request`` against the endpoints in
:mod:`repro.service.server`.  Every method returns parsed JSON (or raw
text/bytes for reports and thumbnails); HTTP errors surface as
:class:`ServiceError` carrying the status code and the server's ``error``
message.

>>> client = ServiceClient("http://127.0.0.1:8765")   # doctest: +SKIP
>>> job = client.submit({"layout": {...}, "optics": {...}, "grid": {...}})
>>> client.wait(job["id"])
>>> report = client.report(job["id"], format="json")
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

__all__ = ["ServiceClient", "ServiceError"]

#: Seconds between status requests in :meth:`ServiceClient.wait`.
WAIT_POLL_S = 0.2


class ServiceError(RuntimeError):
    """An HTTP-level failure from the campaign service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Submit, poll, fetch and cancel campaigns over HTTP."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ------------------------------------------------------ #
    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None) -> bytes:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.base_url + path, data=body,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw.decode("utf-8")).get("error", "")
            except (ValueError, UnicodeDecodeError):
                message = raw.decode("utf-8", errors="replace")
            raise ServiceError(exc.code, message or exc.reason) from None

    def _json(self, method: str, path: str,
              payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return json.loads(self._request(method, path, payload).decode("utf-8"))

    # -- API ------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """POST a campaign request; returns the job's status dict."""
        return self._json("POST", "/campaigns", request)

    def list(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/campaigns")["campaigns"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/campaigns/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json("DELETE", f"/campaigns/{job_id}")

    def report(self, job_id: str, format: str = "json"):  # noqa: A002
        """The stored report — a dict for json, text for html/text."""
        raw = self._request("GET", f"/campaigns/{job_id}/report?format={format}")
        if format == "json":
            return json.loads(raw.decode("utf-8"))
        return raw.decode("utf-8")

    def wait(self, job_id: str, timeout: float = 120.0) -> Dict[str, Any]:
        """Poll until the job settles; returns its final status dict."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("completed", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {job_id} still {status['state']} "
                    f"after {timeout}s")
            time.sleep(WAIT_POLL_S)
