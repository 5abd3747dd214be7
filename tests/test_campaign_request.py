"""One campaign runner: ``repro sweep-window`` and the campaign service take
the same campaign the same way.

The CLI turns its flags into the service's request and both parse it with
``CampaignRequest.from_dict`` and run it with ``CampaignRequest.run``.  Each
row of the table below goes through ``main(["sweep-window", ...])`` and
through a ``CampaignServer`` / ``ServiceClient``:

* a good campaign gives the same CD matrix bit for bit;
* a bad one is one ``error:`` line and exit 2 on the CLI exactly when it is
  a 400 carrying the same message, with no campaign directory, no store,
  no output and no kernel bank built.
"""

import os

import numpy as np
import pytest

from repro.cli import main
from repro.engine import KernelBankCache
from repro.layout.sources import synthesize_layout_mask
from repro.optics.simulator import OpticsConfig
from repro.service import (
    CampaignRequest,
    CampaignServer,
    ServiceClient,
    ServiceError,
)
from repro.sweep import load_campaign_report, report_as_dict

HIER4 = os.path.join(os.path.dirname(__file__), "data", "hier4.gds")
FOCI = [-40.0, 0.0, 40.0]
DOSES = [0.95, 1.0, 1.05]
SMALL = ["--width", "64", "--height", "64", "--tile-size", "32",
         "--pixel-size-nm", "8"]
OPTICS = {"tile_size_px": 32, "pixel_size_nm": 8.0}
SYNTHETIC = {"kind": "synthetic", "family": "B2m", "width_px": 64,
             "height_px": 64, "seed": 0}


def request(**overrides) -> dict:
    campaign = {"layout": SYNTHETIC, "optics": OPTICS,
                "grid": {"focus_nm": FOCI, "dose": DOSES}}
    campaign.update(overrides)
    return campaign


def sweep_window(arguments, store, output=None) -> int:
    extra = ["--output", str(output)] if output is not None else []
    return main(["sweep-window", *arguments, "--focus=-40,0,40",
                 "--dose", "0.95,1.0,1.05", "--store", str(store), *extra])


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with CampaignServer(str(tmp_path_factory.mktemp("svc")),
                        campaign_workers=2) as svc:
        yield svc


GOOD = {
    "synthetic": (SMALL, request()),
    "hier4.gds": (["--input", HIER4, "--tile-size", "32", "--pixel-size-nm",
                   "8", "--target-cd", "64"],
                  request(layout={"kind": "file", "path": HIER4},
                          target_cd_nm=64.0)),
    "guard": (SMALL + ["--guard", "8"], request(guard_px=8)),
    "dipole": (SMALL + ["--source", "dipole"],
               request(optics=dict(OPTICS, source="dipole"))),
    "tile cache": (SMALL + ["--tile-cache"],
                   request(compute={"tile_cache": True})),
}


@pytest.mark.parametrize("row", sorted(GOOD))
def test_a_campaign_gives_one_cd_matrix_on_both_surfaces(row, server,
                                                         tmp_path):
    arguments, campaign = GOOD[row]
    store = tmp_path / "cli-store"
    assert sweep_window(arguments, store) == 0
    client = ServiceClient(server.url)
    job = client.wait(client.submit(campaign)["id"])
    assert job["state"] == "completed", job["error"]
    served = client.report(job["id"], format="json")
    local = report_as_dict(load_campaign_report(str(store)))
    assert served["cd_matrix"] == local["cd_matrix"]
    assert served["window"] == local["window"]


@pytest.fixture
def bad_layouts(tmp_path):
    from repro.layout.gdsii import GDSBoundary, GDSCell, write_gds

    not_gds = tmp_path / "nul.gds"
    not_gds.write_bytes(b"abc\0\0\0def\0")
    square = [GDSBoundary(1, ((0, 0), (64, 0), (64, 64), (0, 64)))]
    two_tops = tmp_path / "twotop.gds"
    write_gds({"A": GDSCell("A", square, []),
               "B": GDSCell("B", square, [])}, str(two_tops))
    wire = tmp_path / "wire.gds"
    plain = write_gds({"TOP": GDSCell("TOP", square, [])})
    wire.write_bytes(plain[:-8] + b"\x00\x04\x09\x00\x00\x04\x11\x00"
                     + plain[-8:])
    return {"missing": str(tmp_path / "nope.gds"), "not gds": str(not_gds),
            "two tops": str(two_tops), "PATH": str(wire)}


def file_row(name):
    return (lambda files: ["--input", files[name]],
            lambda files: request(layout={"kind": "file",
                                          "path": files[name]}))


#: (CLI arguments, request, a part of the message); ``None`` arguments: the
#: CLI cannot spell the request.
BAD = {
    "missing file": file_row("missing") + ("no layout file at ",),
    "not a layout": file_row("not gds") + ("not a layout file",),
    "two top cells": file_row("two tops") + ("ambiguous top cell",),
    "PATH element": file_row("PATH") + ("PATH element in structure 'TOP'",),
    "unknown source": (lambda files: SMALL + ["--source", "nosuch"],
                       lambda files: request(
                           optics=dict(OPTICS, source="nosuch")),
                       "invalid optics.source: unknown source type"),
    "guard too wide": (lambda files: SMALL + ["--guard", "40"],
                       lambda files: request(guard_px=40),
                       "guard band 40 px leaves no tile core"),
    "bad tolerance": (lambda files: SMALL + ["--tolerance", "1.5"],
                      lambda files: request(tolerance=1.5),
                      "tolerance must be in (0, 1)"),
    "negative target": (lambda files: SMALL + ["--target-cd", "-5"],
                        lambda files: request(target_cd_nm=-5.0),
                        "target_cd_nm must be positive"),
    "file without path": (None, lambda files: request(
        layout={"kind": "file"}), "layout.path must be a file path"),
    "ragged array": (None, lambda files: request(
        layout={"kind": "array", "data": [[0, 1], [1]]}),
        "layout.data must be a 2-D array of numbers"),
    "array without data": (None, lambda files: request(
        layout={"kind": "array"}),
        "layout.data must be a 2-D array of numbers"),
    # argparse's choices and int type refuse these on the CLI first.
    "precision alias": (None, lambda files: request(
        compute={"precision": "single"}),
        "invalid compute: unknown precision 'single'; supported precisions: "
        "float32, float64"),
    "unknown family": (None, lambda files: request(
        layout=dict(SYNTHETIC, family="B9")), "unknown layout family 'B9'"),
    "width not an integer": (None, lambda files: request(
        layout=dict(SYNTHETIC, width_px="wide")),
        'layout.width_px must be an integer, got "wide"'),
}


@pytest.mark.parametrize("row", sorted(BAD))
def test_exit_2_on_the_cli_is_a_400_with_the_same_message(
        row, server, bad_layouts, tmp_path, capsys, monkeypatch):
    def no_bank(*args, **kwargs):
        raise AssertionError("a kernel bank was built for a bad campaign")

    monkeypatch.setattr(KernelBankCache, "get_kernels", no_bank)
    cli, campaign, message = BAD[row]
    campaigns = sorted(os.listdir(server.manager.campaigns_dir))
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient(server.url).submit(campaign(bad_layouts))
    assert excinfo.value.status == 400
    assert message in excinfo.value.message
    assert sorted(os.listdir(server.manager.campaigns_dir)) == campaigns
    if cli is None:
        return
    store, output = tmp_path / "store", tmp_path / "out.npz"
    capsys.readouterr()  # the server's request log
    assert sweep_window(cli(bad_layouts), store, output) == 2
    assert capsys.readouterr().err == f"error: {excinfo.value.message}\n"
    assert not store.exists() and not output.exists()


@pytest.mark.parametrize("precision", ["single", "FLOAT32"])
def test_the_cli_spells_a_precision_one_way(precision, tmp_path, capsys,
                                            monkeypatch):
    def no_bank(*args, **kwargs):
        raise AssertionError("a kernel bank was built for a bad campaign")

    monkeypatch.setattr(KernelBankCache, "get_kernels", no_bank)
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as excinfo:
        sweep_window(SMALL + ["--precision", precision], store)
    assert excinfo.value.code == 2
    assert f"invalid choice: '{precision}'" in capsys.readouterr().err
    assert not store.exists()


def test_a_resume_of_a_complete_store_builds_no_bank(tmp_path, capsys,
                                                     monkeypatch):
    """Nothing is left to image, so no focus needs its kernel bank."""
    store = tmp_path / "store"
    assert sweep_window(SMALL, store) == 0

    def no_bank(*args, **kwargs):
        raise AssertionError("a kernel bank was built for a done campaign")

    monkeypatch.setattr(KernelBankCache, "get_kernels", no_bank)
    capsys.readouterr()
    assert sweep_window(SMALL + ["--resume"], store) == 0
    assert "(0 computed, 9 resumed)" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--resume"], ["--store-aerials"],
                                   ["--resume", "--store-aerials"]])
def test_a_store_flag_without_a_store_is_refused(flags, tmp_path, capsys,
                                                 monkeypatch):
    """``--resume`` / ``--store-aerials`` act on ``--store``: without one
    they are one ``error:`` line naming it and exit 2, before any kernel
    bank is built and with nothing written."""
    def no_bank(*args, **kwargs):
        raise AssertionError("a kernel bank was built without a store")

    monkeypatch.setattr(KernelBankCache, "get_kernels", no_bank)
    output = tmp_path / "out.npz"
    assert main(["sweep-window", *SMALL, *flags, "--focus=-40,0,40",
                 "--dose", "0.95,1.0,1.05", "--output", str(output)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flags[0]} needs --store\n"
    assert captured.out == "" and not output.exists()


def test_the_layout_is_drawn_at_the_pixel_size_it_is_imaged_at():
    """A request that leaves ``pixel_size_nm`` to ``OpticsConfig`` paints
    its layout at that same pixel size."""
    parsed = CampaignRequest.from_dict(request(optics={"tile_size_px": 32}))
    assert parsed.optics.pixel_size_nm == OpticsConfig().pixel_size_nm
    np.testing.assert_array_equal(parsed.layout, synthesize_layout_mask(
        64, 64, 32, OpticsConfig().pixel_size_nm, "B2m", 0))
