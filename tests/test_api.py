"""The repro.api façade: three verbs over the imaging stack.

The façade must be a *thin* composition — its results are pinned bit-for-bit
against the underlying layers it wraps.
"""

import numpy as np
import pytest

import repro.api as api
from repro.engine import ExecutionEngine, KernelBankCache
from repro.engine import cache as cache_module
from repro.optics.simulator import OpticsConfig

OPTICS = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
COMPUTE = api.ComputeConfig(precision="float64")


def make_mask() -> np.ndarray:
    mask = np.zeros((48, 48))
    mask[10:38, 6:42] = 1.0
    mask[20:28, 20:28] = 0.0
    return mask


class TestFacade:
    def test_explicit_all(self):
        assert set(api.__all__) == {"ComputeConfig", "image_layout",
                                    "open_campaign", "sweep_window"}
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_image_layout_matches_engine(self):
        mask = make_mask()
        image = api.image_layout(mask, OPTICS, compute=COMPUTE, tile_px=32)
        engine = ExecutionEngine.for_optics(OPTICS, compute=COMPUTE)
        direct = engine.image_layout(mask, tile_px=32)
        np.testing.assert_array_equal(np.asarray(image.aerial),
                                      np.asarray(direct.aerial))
        np.testing.assert_array_equal(np.asarray(image.resist),
                                      np.asarray(direct.resist))

    def test_image_layout_accepts_a_path(self, tmp_path):
        mask = make_mask()
        path = tmp_path / "layout.npy"
        np.save(path, mask)
        image = api.image_layout(str(path), OPTICS, compute=COMPUTE)
        reference = api.image_layout(mask, OPTICS, compute=COMPUTE)
        np.testing.assert_array_equal(np.asarray(image.aerial),
                                      np.asarray(reference.aerial))

    def test_sweep_window_and_open_campaign(self, tmp_path):
        store = str(tmp_path / "campaign")
        outcome = api.sweep_window(make_mask(), OPTICS,
                                   focus_nm=[-40.0, 0.0, 40.0],
                                   dose=[0.95, 1.0, 1.05],
                                   compute=COMPUTE, store=store)
        assert outcome.computed_conditions == 9
        report = api.open_campaign(store)
        assert report.is_complete
        assert report.completed_conditions == 9
        window = report.window()
        assert window is not None
        assert window.target_cd_nm == pytest.approx(
            outcome.window.target_cd_nm)

    def test_open_campaign_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            api.open_campaign(str(tmp_path / "nothing"))


def reachable_array_bytes(root) -> int:
    """Bytes of every distinct array reachable from ``root`` through
    containers and instance attributes."""
    seen, total, pending = set(), 0, [root]
    while pending:
        item = pending.pop()
        if id(item) in seen or isinstance(item, type):
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, dict):
            pending.extend(item.keys())
            pending.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            pending.extend(item)
        elif hasattr(item, "__dict__"):
            pending.extend(vars(item).values())
    return total


def test_a_sweep_leaves_only_banks_in_the_default_cache(monkeypatch):
    """A 3-focus in-process sweep keeps three float64 banks (~0.3 MiB each
    on 256 px / 4 nm optics) in the process-wide cache — not the 10.8 MiB
    TCC each was decomposed from."""
    monkeypatch.delenv("REPRO_KERNEL_CACHE_DIR", raising=False)
    shared = KernelBankCache()
    monkeypatch.setattr(cache_module, "_default_cache", shared)
    mask = np.zeros((256, 256))
    mask[:, 112:144] = 1.0
    api.sweep_window(mask, OpticsConfig(tile_size_px=256, pixel_size_nm=4.0),
                     focus_nm=[-40.0, 0.0, 40.0], dose=[1.0],
                     target_cd_nm=128.0, compute=COMPUTE)
    assert len(shared) == 3 and shared.stats.decompositions == 3
    assert reachable_array_bytes(shared) < 2 * 2 ** 20
