"""The unified ComputeConfig policy object — the only carrier of policy names.

Pins the API contract: one serialisable object carries every compute-policy
knob through the engine, executor, sweep and CLI layers; the engine's own
``fft_backend`` / ``precision`` / ``tile_cache`` keywords take live objects
and reject names with a ``TypeError`` pointing at ``ComputeConfig``; both
spellings of one policy produce bit-for-bit identical engines and equal
specs.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.backend import FLOAT32, ComputeConfig, get_backend
from repro.cli import _compute_from_args, build_parser
from repro.engine import (
    EngineSpec,
    ExecutionEngine,
    ShardedExecutor,
    TileResultCache,
    default_tile_cache,
)
from repro.optics.simulator import OpticsConfig

OPTICS = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)


def make_masks(count: int = 2) -> np.ndarray:
    rng = np.random.default_rng(5)
    return (rng.random((count, 32, 32)) > 0.6).astype(float)


class TestComputeConfig:
    def test_json_round_trip(self):
        config = ComputeConfig(fft_backend="numpy", fft_workers=2,
                               precision="float32", tile_cache=True)
        assert ComputeConfig.from_json(config.to_json()) == config
        assert ComputeConfig.from_json(config.as_dict()) == config
        # drop_none keeps the round trip: missing keys stay None
        sparse = ComputeConfig(precision="float64")
        assert ComputeConfig.from_json(sparse.to_json(drop_none=True)) == sparse

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="fft_backnd"):
            ComputeConfig.from_dict({"fft_backnd": "numpy"})
        # four fields, no fifth: the scheduler name is gone with its seam
        assert len(dataclasses.fields(ComputeConfig)) == 4
        with pytest.raises(ValueError, match="scheduler"):
            ComputeConfig.from_dict({"scheduler": "pool"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            ComputeConfig.from_json(json.dumps(["numpy"]))

    def test_validates_field_types(self):
        with pytest.raises(ValueError):
            ComputeConfig(fft_workers=0)
        with pytest.raises(TypeError):
            ComputeConfig(fft_workers=True)
        with pytest.raises(TypeError, match="instances directly"):
            ComputeConfig(tile_cache="yes")
        with pytest.raises(TypeError, match="instances directly"):
            ComputeConfig(precision=np.float32)

    def test_from_env_reads_the_legacy_variables(self, monkeypatch):
        for var in ("REPRO_FFT_BACKEND", "REPRO_FFT_WORKERS",
                    "REPRO_PRECISION", "REPRO_TILE_CACHE",
                    "REPRO_TILE_CACHE_DIR"):
            monkeypatch.delenv(var, raising=False)
        assert ComputeConfig.from_env() == ComputeConfig()
        monkeypatch.setenv("REPRO_FFT_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_FFT_WORKERS", "3")
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        monkeypatch.setenv("REPRO_TILE_CACHE", "off")
        monkeypatch.setenv("REPRO_SCHEDULER", "stealing")  # no longer read
        assert ComputeConfig.from_env() == ComputeConfig(
            fft_backend="numpy", fft_workers=3, precision="float32",
            tile_cache=False)
        # REPRO_TILE_CACHE_DIR alone implies caching on
        monkeypatch.delenv("REPRO_TILE_CACHE")
        monkeypatch.setenv("REPRO_TILE_CACHE_DIR", "/tmp/somewhere")
        assert ComputeConfig.from_env().tile_cache is True

    @pytest.mark.parametrize("flag,cache_dir,expected", [
        ("", None, False), ("", "/tmp/somewhere", False),
        ("0", None, False), ("off", "/tmp/somewhere", False),
        ("1", None, True), (None, "/tmp/somewhere", True),
        (None, None, None),
    ])
    def test_one_tile_cache_env_parser(self, monkeypatch, flag, cache_dir,
                                       expected):
        """``ComputeConfig`` and the engine's ``resolve_tile_cache`` read
        ``REPRO_TILE_CACHE`` / ``_DIR`` through one parser, so they cannot
        disagree — the empty string used to be on here and off there."""
        from repro.engine import resolve_tile_cache
        from repro.engine import tile_cache as tile_cache_module

        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        for var, value in (("REPRO_TILE_CACHE", flag),
                           ("REPRO_TILE_CACHE_DIR", cache_dir)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert ComputeConfig.from_env().tile_cache is expected
        resolved = ComputeConfig(fft_backend="numpy").resolve().tile_cache
        assert resolved is expected
        assert (resolve_tile_cache(None) is not None) is bool(expected)

    def test_resolve_pins_concrete_names(self):
        resolved = ComputeConfig(fft_backend="numpy").resolve()
        assert resolved.fft_backend == "numpy"
        assert resolved.precision in ("float64", "float32")
        with pytest.raises(ValueError, match="registered backends"):
            ComputeConfig(fft_backend="bogus").resolve()


class TestLegacyShim:
    """What replaced the legacy-kwarg shim: names raise, objects pass."""

    @pytest.mark.parametrize("keyword,name", [
        ("fft_backend", "numpy"), ("precision", "float32"),
        ("tile_cache", True), ("tile_cache", False),
    ])
    def test_engine_policy_names_raise_type_error(self, keyword, name):
        bank = np.zeros((1, 9, 9), dtype=complex)
        bank[0, 4, 4] = 1.0
        with pytest.raises(TypeError, match=rf"ComputeConfig\({keyword}="):
            ExecutionEngine(bank, **{keyword: name})

    def test_for_optics_precision_name_raises_type_error(self):
        with pytest.raises(TypeError, match=r"ComputeConfig\(precision="):
            ExecutionEngine.for_optics(OPTICS, precision="float32")

    def test_loose_worker_and_sweep_keywords_are_gone(self):
        from repro.sweep import ProcessWindowSweep

        bank = np.ones((1, 3, 3), dtype=complex)
        with pytest.raises(TypeError, match="fft_workers"):
            ExecutionEngine(bank, fft_workers=2)
        with pytest.raises(TypeError, match="precision"):
            ProcessWindowSweep(OPTICS, precision="float32")
        # the switches that selected between execution paths went with them
        with pytest.raises(TypeError, match="scheduler"):
            ShardedExecutor(scheduler="pool")
        with pytest.raises(TypeError, match="scheduler"):
            ComputeConfig(scheduler="pool")

    def test_knob_census(self):
        """Every settable place on the road to the SOCS core, literally: a
        removed option (the chunk-bytes knob went in PR 20) cannot drift back
        unnoticed, and a new one has to be written down here."""
        import inspect

        from repro.engine import batched_aerial_from_kernels
        from repro.service import CampaignManager
        from repro.sweep import ProcessWindowSweep

        def parameters(function):
            return [name for name in inspect.signature(function).parameters
                    if name != "self"]

        assert parameters(batched_aerial_from_kernels) == [
            "masks", "kernels", "output_shape", "backend", "precision", "out"]
        assert parameters(ExecutionEngine.__init__) == [
            "kernels", "resist_threshold", "tile_size_px", "fft_backend",
            "precision", "tile_cache", "compute"]
        assert [field.name for field in dataclasses.fields(EngineSpec)] == [
            "config", "source", "pupil", "cache_dir", "compute"]
        assert parameters(ProcessWindowSweep.__init__) == [
            "config", "source", "pupil", "executor", "cd_row", "compute"]
        # num_workers is accepted and ignored (the end-to-end benchmark
        # still passes it); the shard cut's pool= went with the cut, and the
        # executor's own tile cache and compute= with its second copy of
        # the engine's policy.
        assert parameters(ShardedExecutor.__init__) == [
            "num_workers", "cache_dir"]
        # precision / compute reach the constructor through **kwargs, which
        # resolves "auto" against the bank: the cache holds no such rule.
        assert parameters(ExecutionEngine.for_optics) == [
            "config", "source", "pupil", "cache", "kwargs"]
        from repro.engine import KernelBankCache

        assert not hasattr(KernelBankCache, "bank_precision")
        assert not hasattr(KernelBankCache, "trim_memory")
        assert parameters(CampaignManager.__init__) == [
            "data_dir", "campaign_workers", "recover"]
        # The paper's model: the training grid is the engine's and the
        # learning-rate schedule is the one loop's, neither a setting.
        from repro.core import NithoConfig

        assert [field.name for field in dataclasses.fields(NithoConfig)] == [
            "num_kernels", "hidden_dim", "num_hidden_blocks", "encoding",
            "encoding_kwargs", "kernel_shape_override", "learning_rate",
            "batch_size", "epochs", "seed", "real_valued_mlp"]

    def test_engine_compute_kwarg_is_silent_and_equivalent(self):
        masks = make_masks()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            objects = ExecutionEngine.for_optics(
                OPTICS, fft_backend=get_backend("numpy"), precision=FLOAT32)
            unified = ExecutionEngine.for_optics(
                OPTICS, compute=ComputeConfig(fft_backend="numpy",
                                              precision="float32"))
        assert unified.backend.name == objects.backend.name
        assert unified.precision.name == objects.precision.name
        np.testing.assert_array_equal(unified.aerial_batch(masks),
                                      objects.aerial_batch(masks))

    def test_engine_spec_carries_one_resolved_compute(self):
        spec = EngineSpec(
            config=OPTICS, compute=ComputeConfig(fft_backend="numpy",
                                                 fft_workers=2,
                                                 precision="single",
                                                 tile_cache=True))
        # concrete names, given workers and tile-cache switch
        assert spec.compute == ComputeConfig(fft_backend="numpy",
                                             fft_workers=2,
                                             precision="float32",
                                             tile_cache=True)
        assert EngineSpec(config=OPTICS, compute=spec.compute) == spec
        default = EngineSpec(config=OPTICS).compute
        assert default.fft_backend == get_backend().name
        assert default.precision == "float64"

    @pytest.mark.parametrize("loose", [{"fft_backend": "numpy"},
                                       {"fft_workers": 2},
                                       {"precision": "float32"}])
    def test_engine_spec_refuses_the_loose_policy_names(self, loose):
        with pytest.raises(TypeError, match="unexpected keyword"):
            EngineSpec(config=OPTICS, **loose)

    def test_engine_takes_the_tile_cache_switch_from_compute(self):
        bank = np.ones((1, 3, 3), dtype=complex)
        on = ExecutionEngine(bank, compute=ComputeConfig(tile_cache=True))
        assert on.tile_cache is default_tile_cache()
        # a live cache beats the config's switch
        cache = TileResultCache()
        live = ExecutionEngine(bank, tile_cache=cache,
                               compute=ComputeConfig(tile_cache=False))
        assert live.tile_cache is cache


class TestCliComputeConfig:
    def _args(self, extra):
        return build_parser().parse_args(
            ["image-layout", "--output", "x.npz"] + extra)

    def test_compute_config_flag_seeds_the_policy(self):
        arguments = self._args(["--compute-config",
                                '{"fft_backend": "numpy", '
                                '"precision": "float32"}'])
        compute = _compute_from_args(arguments)
        assert compute.fft_backend == "numpy"
        assert compute.precision == "float32"

    def test_explicit_flags_override_the_json(self):
        arguments = self._args(["--compute-config",
                                '{"fft_backend": "numpy", '
                                '"precision": "float32"}',
                                "--precision", "float64"])
        compute = _compute_from_args(arguments)
        assert compute == ComputeConfig(fft_backend="numpy",
                                        precision="float64")

    def test_compute_config_from_file(self, tmp_path):
        path = tmp_path / "compute.json"
        path.write_text(json.dumps({"precision": "float32"}))
        arguments = self._args(["--compute-config", f"@{path}"])
        assert _compute_from_args(arguments).precision == "float32"

    def test_bad_json_fails_loudly(self):
        arguments = self._args(["--compute-config", '{"precisio": "x"}'])
        with pytest.raises(ValueError, match="precisio"):
            _compute_from_args(arguments)
