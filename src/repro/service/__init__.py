"""Campaign service: process-window campaigns over HTTP, stdlib only.

Two layers, each usable on its own:

* :mod:`repro.service.jobs` — :class:`CampaignManager`: parses JSON
  campaign requests and runs each — a
  :class:`~repro.sweep.campaign.CampaignRequest`, as in ``repro
  sweep-window`` — on one pool of ``campaign_workers`` threads (the
  ``queue`` block of ``/healthz``), and replays incomplete campaigns on
  startup so a killed-and-restarted server computes exactly the remainder.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  ``http.server`` surface (``repro serve``) and its urllib client.

Reports (json/html/text) and aerial thumbnails are rendered straight from
the on-disk store with zero recomputation.
"""

from ..sweep.campaign import CampaignRequest
from .client import ServiceClient, ServiceError
from .jobs import CampaignCancelled, CampaignJob, CampaignManager
from .server import CampaignServer, serve

__all__ = [
    "CampaignCancelled",
    "CampaignJob",
    "CampaignManager",
    "CampaignRequest",
    "CampaignServer",
    "ServiceClient",
    "ServiceError",
    "serve",
]
