"""The unified ComputeConfig policy object — the only carrier of policy names.

Pins the API contract: one serialisable object carries every compute-policy
knob through the engine, executor, sweep and CLI layers; the engine's own
``fft_backend`` / ``tile_cache`` keywords take live objects and reject names
with a ``TypeError`` pointing at ``ComputeConfig``; and nothing on the road
to the SOCS core spells a setting twice.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.backend import ComputeConfig, get_backend
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


class TestComputeConfig:
    def test_json_round_trip(self):
        config = ComputeConfig(fft_workers=2,
                               precision="float32", tile_cache=True)
        text = json.dumps(config.as_dict())
        assert ComputeConfig.from_dict(json.loads(text)) == config
        # missing keys stay None
        assert ComputeConfig.from_dict({"precision": "float64"}) == \
            ComputeConfig(precision="float64")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="fft_backnd"):
            ComputeConfig.from_dict({"fft_backnd": "numpy"})
        # three fields: the scheduler name is gone with its seam, the
        # backend name with the second FFT library
        assert len(dataclasses.fields(ComputeConfig)) == 3
        with pytest.raises(ValueError, match="scheduler"):
            ComputeConfig.from_dict({"scheduler": "pool"})
        with pytest.raises(ValueError, match=r"unknown ComputeConfig "
                           r"field\(s\) fft_backend; known fields: "
                           r"fft_workers, precision, tile_cache"):
            ComputeConfig.from_dict({"fft_backend": "numpy"})

    @pytest.mark.parametrize("value,kind", [
        ('{"precision": "float32"}', "str"), (["numpy"], "list")],
        ids=["str", "list"])
    def test_from_dict_rejects_non_object(self, value, kind):
        """JSON text is not a second spelling of the object it encodes."""
        with pytest.raises(ValueError,
                           match=f"compute must be a JSON object, got {kind}"):
            ComputeConfig.from_dict(value)

    def test_validates_field_types(self):
        with pytest.raises(ValueError):
            ComputeConfig(fft_workers=0)
        with pytest.raises(TypeError):
            ComputeConfig(fft_workers=True)
        with pytest.raises(TypeError, match="instances directly"):
            ComputeConfig(tile_cache="yes")
        with pytest.raises(TypeError, match="instances directly"):
            ComputeConfig(precision=np.float32)

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_TILE_CACHE", "1"), ("REPRO_TILE_CACHE_DIR", "/tmp/somewhere"),
        ("REPRO_PRECISION", "float32"), ("REPRO_PRECISION", "auto"),
    ])
    def test_the_environment_is_no_policy(self, monkeypatch, variable,
                                          value):
        """A ``None`` field is the code's default whatever the environment
        says: float64 and no tile cache."""
        from repro.engine import resolve_tile_cache

        monkeypatch.setenv(variable, value)
        assert ComputeConfig().resolve() == ComputeConfig(
            precision="float64")
        assert resolve_tile_cache(None) is None

    def test_resolve_pins_concrete_names(self):
        resolved = ComputeConfig().resolve()
        assert resolved.precision in ("float64", "float32")
        assert resolved.fft_workers is None
        assert list(resolved.as_dict()) == ["fft_workers", "precision",
                                            "tile_cache"]
        assert ComputeConfig(fft_workers=3).resolve().fft_workers == 3


class TestLegacyShim:
    """What replaced the legacy-kwarg shim: names raise, objects pass."""

    @pytest.mark.parametrize("keyword,name", [
        ("fft_backend", "numpy"), ("precision", "float32"),
        ("tile_cache", True), ("tile_cache", False),
    ])
    def test_engine_policy_names_raise_type_error(self, keyword, name):
        """A live-object keyword points a name at ``ComputeConfig``; the
        precision has no keyword at all: ``compute.precision`` is its one
        spelling."""
        bank = np.zeros((1, 9, 9), dtype=complex)
        bank[0, 4, 4] = 1.0
        with pytest.raises(TypeError, match=rf"{keyword}= takes a|"
                           rf"unexpected keyword argument '{keyword}'"):
            ExecutionEngine(bank, **{keyword: name})

    def test_for_optics_precision_name_raises_type_error(self):
        with pytest.raises(TypeError,
                           match="unexpected keyword argument 'precision'"):
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
        removed option (the chunk-bytes knob, a second resolution, a second
        batch size, a second precision keyword) cannot drift back
        unnoticed, and a new one has to be written down here.  Each one
        left has a caller outside the tests."""
        import inspect

        from repro.engine import batched_aerial_from_kernels
        from repro.service import CampaignManager, ServiceClient
        from repro.sweep import ProcessWindowSweep

        def parameters(function):
            return [name for name in inspect.signature(function).parameters
                    if name != "self"]

        # Every image is at the mask's own resolution.
        assert parameters(batched_aerial_from_kernels) == [
            "masks", "kernels", "backend", "precision"]
        assert parameters(ExecutionEngine.__init__) == [
            "kernels", "resist_threshold", "tile_size_px", "fft_backend",
            "tile_cache", "compute"]
        assert parameters(ExecutionEngine.aerial_batch) == ["masks"]
        # The stream batch is always stream_batch_tiles(tiling).
        assert parameters(ExecutionEngine.image_layout) == [
            "layout", "tiling", "tile_px", "guard_px", "out_dir"]
        assert [field.name for field in dataclasses.fields(EngineSpec)] == [
            "config", "source", "pupil", "cache_dir", "compute"]
        # The tracked CD row is the widest nominal feature, or the store's.
        assert parameters(ProcessWindowSweep.__init__) == [
            "config", "source", "pupil", "executor", "compute"]
        # num_workers is accepted and ignored (the end-to-end benchmark
        # still passes it); the shard cut's pool= went with the cut, and the
        # executor's own tile cache and compute= with its second copy of
        # the engine's policy.
        assert parameters(ShardedExecutor.__init__) == [
            "num_workers", "cache_dir"]
        assert parameters(ShardedExecutor.aerial_batch) == ["spec", "masks"]
        assert parameters(ShardedExecutor.image_layout) == [
            "spec", "layout", "tiling", "tile_px", "guard_px", "out_dir"]
        assert not hasattr(ShardedExecutor, "resist_batch")
        # Names: the service's "compute" object in, the resolved record out;
        # no backend name, since numpy is the one FFT library.
        assert [field.name for field in dataclasses.fields(ComputeConfig)] \
            == ["fft_workers", "precision", "tile_cache"]
        assert {name for name, member in vars(ComputeConfig).items()
                if not name.startswith("_")
                and callable(getattr(ComputeConfig, name))} == {
            "from_dict", "as_dict", "resolve"}
        # The command line spells the policy with its three flags only.
        verbs = next(action for action in build_parser()._actions
                     if action.dest == "command").choices
        for verb in ("image-layout", "sweep-window"):
            flags = {flag for action in verbs[verb]._actions
                     for flag in action.option_strings}
            assert {"--fft-workers", "--precision", "--tile-cache"} <= flags
            assert "--compute-config" not in flags
            assert "--fft-backend" not in flags
        # precision / compute reach the constructor through **kwargs, which
        # resolves "auto" against the bank: the cache holds no such rule.
        assert parameters(ExecutionEngine.for_optics) == [
            "config", "source", "pupil", "cache", "kwargs"]
        from repro.engine import KernelBankCache

        assert not hasattr(KernelBankCache, "bank_precision")
        assert not hasattr(KernelBankCache, "trim_memory")
        assert parameters(CampaignManager.__init__) == [
            "data_dir", "campaign_workers"]
        assert parameters(CampaignManager.wait) == ["job_id", "timeout"]
        assert parameters(ServiceClient.wait) == ["job_id", "timeout"]
        # The paper's model: the training grid is the engine's and the
        # learning-rate schedule is the one loop's, neither a setting.
        from repro.core import NithoConfig

        assert [field.name for field in dataclasses.fields(NithoConfig)] == [
            "num_kernels", "hidden_dim", "num_hidden_blocks", "encoding",
            "encoding_kwargs", "kernel_shape_override", "learning_rate",
            "batch_size", "epochs", "seed", "real_valued_mlp"]

    def test_engine_spec_carries_one_resolved_compute(self):
        spec = EngineSpec(
            config=OPTICS, compute=ComputeConfig(fft_workers=2,
                                                 precision="single",
                                                 tile_cache=True))
        # a concrete name, given workers and tile-cache switch
        assert spec.compute == ComputeConfig(fft_workers=2,
                                             precision="float32",
                                             tile_cache=True)
        assert EngineSpec(config=OPTICS, compute=spec.compute) == spec
        default = EngineSpec(config=OPTICS).compute
        assert default == ComputeConfig(precision="float64")
        assert spec.build().backend is get_backend(2)

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


class TestCliCompute:
    def test_the_three_flags_are_the_policy(self):
        def compute(*flags):
            return _compute_from_args(build_parser().parse_args(
                ["image-layout", "--output", "x.npz", *flags]))

        assert compute() == ComputeConfig()
        assert compute("--fft-workers", "2", "--precision", "float32",
                       "--tile-cache") == \
            ComputeConfig(fft_workers=2, precision="float32",
                          tile_cache=True)
        assert compute("--no-tile-cache").tile_cache is False
        with pytest.raises(SystemExit):
            compute("--fft-backend", "numpy")
