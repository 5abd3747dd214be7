"""Integration tests for the experiment drivers (tables and figures) at reduced scale.

These exercise the same code paths the benchmark harness uses, but with
heavily reduced budgets so the whole file stays fast.  A single module-scoped
context is shared so models are trained once.
"""

import pytest

from repro.experiments import (
    MODEL_NAMES,
    ExperimentConfig,
    ExperimentContext,
    evaluate_on_dataset,
    preset_from_environment,
)
from repro.experiments.ablations import (
    run_real_vs_complex_ablation,
    run_rff_sigma_ablation,
    run_socs_order_ablation,
)
from repro.experiments.fig2 import run_fig2a, run_fig2b
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6a, run_fig6b
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5

PRESET = "tiny"
SEED = 7

# Full table / figure drivers train models even at the tiny preset; let quick
# developer loops deselect them with `-m "not slow"`.
pytestmark = pytest.mark.slow


class TestExperimentConfig:
    def test_preset_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(preset="enormous")

    def test_budgets_exist_for_all_presets(self):
        for preset in ("tiny", "small", "default"):
            config = ExperimentConfig(preset=preset)
            assert config.budgets.nitho_epochs > 0
            assert config.tile_size_px > 0

    def test_nitho_config_overrides(self):
        config = ExperimentConfig(preset="tiny")
        nitho = config.nitho_config(num_kernels=5, epochs=3)
        assert nitho.num_kernels == 5
        assert nitho.epochs == 3

    def test_nitho_config_non_rff_encoding_drops_rff_kwargs(self):
        config = ExperimentConfig(preset="tiny")
        nitho = config.nitho_config(encoding="nerf")
        assert nitho.encoding == "nerf"
        assert nitho.encoding_kwargs == {}

    def test_preset_from_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_PRESET", raising=False)
        assert preset_from_environment("tiny") == "tiny"
        monkeypatch.setenv("REPRO_PRESET", "small")
        assert preset_from_environment() == "small"
        monkeypatch.setenv("REPRO_PRESET", "bogus")
        with pytest.raises(ValueError):
            preset_from_environment()


class TestExperimentContext:
    def test_dataset_caching(self):
        context = ExperimentContext(ExperimentConfig(preset=PRESET, seed=SEED))
        assert context.dataset("B1") is context.dataset("B1")

    def test_merged_dataset(self):
        context = ExperimentContext(ExperimentConfig(preset=PRESET, seed=SEED))
        merged = context.dataset("B2m+B2v")
        assert merged.num_train == context.dataset("B2m").num_train + context.dataset("B2v").num_train

    def test_make_model_families(self):
        context = ExperimentContext(ExperimentConfig(preset=PRESET, seed=SEED))
        for name in MODEL_NAMES:
            model = context.make_model(name)
            assert model.num_parameters() > 0
        with pytest.raises(ValueError):
            context.make_model("UNet")

    def test_trained_model_cached(self):
        context = ExperimentContext(ExperimentConfig(preset=PRESET, seed=SEED))
        context.config = ExperimentConfig(preset=PRESET, seed=SEED)
        first = context.trained_model("DOINN", "B1")
        second = context.trained_model("DOINN", "B1")
        assert first is second

    def test_clear_drops_caches(self):
        context = ExperimentContext(ExperimentConfig(preset=PRESET, seed=SEED))
        context.dataset("B1")
        context.clear()
        assert context._datasets == {}


class TestTableDrivers:
    def test_table1_shapes_and_ordering(self):
        result = run_table1(PRESET, SEED, paper_scale=True)
        paper = result["paper_scale"]
        assert paper["TEMPO"]["parameters"] > paper["DOINN"]["parameters"] > paper["Nitho"]["parameters"]
        assert paper["TEMPO"]["size_mb"] > 20
        assert paper["Nitho"]["size_mb"] < 1.0
        assert "Table I" in result["table"]

    def test_table2_rows(self):
        result = run_table2(PRESET, SEED)
        names = [row["dataset"] for row in result["rows"]]
        assert names == ["B1", "B1opc", "B2m", "B2v"]
        assert all(row["tile_px"] > 0 for row in result["rows"])

    def test_table3_single_bench_shape(self):
        result = run_table3(PRESET, SEED, benches=("B1",), max_eval_tiles=2)
        assert set(result["per_bench"]["B1"]) == set(MODEL_NAMES)
        nitho = result["per_bench"]["B1"]["Nitho"]
        doinn = result["per_bench"]["B1"]["DOINN"]
        assert nitho["mse"] < doinn["mse"]
        assert nitho["psnr"] > doinn["psnr"]
        assert result["ratios"]["DOINN"]["mse"] > 1.0

    def test_table4_ood_drop_shape(self):
        result = run_table4(PRESET, SEED, transfers=(("B1", "B1opc"),), max_eval_tiles=2)
        key = "B1->B1opc"
        assert set(result["results"][key]) == set(MODEL_NAMES)
        nitho_drop = result["drops"][key]["Nitho"]["miou"]
        doinn_drop = result["drops"][key]["DOINN"]["miou"]
        assert nitho_drop <= doinn_drop + 5.0  # Nitho must not degrade much more than DOINN
        assert result["results"][key]["Nitho"]["miou"] > result["results"][key]["TEMPO"]["miou"]

    def test_table5_encoding_ablation(self):
        variants = (("None", "none", {}), ("Ours (RFF)", "rff", {}))
        result = run_table5(PRESET, SEED, variants=variants, max_eval_tiles=2)
        assert result["results"]["Ours (RFF)"]["psnr"] > result["results"]["None"]["psnr"]

    def test_evaluate_on_dataset_validates(self):
        context = ExperimentContext(ExperimentConfig(preset=PRESET, seed=SEED))
        dataset = context.dataset("B1")
        model = context.trained_model("Nitho", "B1")
        metrics = evaluate_on_dataset(model, dataset, max_tiles=1)
        assert set(metrics) == {"mse", "me", "psnr", "mpa", "miou"}


class TestFigureDrivers:
    def test_fig2a_embedding(self):
        result = run_fig2a(PRESET, SEED, samples_per_dataset=4, iterations=60)
        assert result["embedding"].embedding.shape[1] == 2
        assert result["separation"] > 0

    def test_fig2b_panels(self):
        result = run_fig2b(PRESET, SEED, train_on="B1", test_on="B2v")
        assert set(MODEL_NAMES).issubset(result["panels"])
        assert "Mask" in result["ascii"]

    def test_fig4_panels(self, tmp_path):
        result = run_fig4(PRESET, SEED, datasets=("B1",), output_directory=str(tmp_path))
        panel = result["panels"]["B1"]
        assert "Our aerial" in panel["images"]
        assert len(panel["files"]) == len(panel["images"])

    def test_fig5_throughput_ordering(self):
        result = run_fig5(PRESET, SEED, tiles=1, repeats=1)
        speeds = result["um2_per_second"]
        assert speeds["Nitho"] > speeds["Ref (rigorous Abbe)"]
        assert result["nitho_vs_rigorous_speedup"] > 1.0
        assert "Nitho" in result["chart"]

    def test_fig6a_fractions(self):
        result = run_fig6a(PRESET, SEED, fractions=(0.5, 1.0), max_eval_tiles=2)
        assert len(result["psnr"]["Nitho"]) == 2
        # Nitho with half the data still beats TEMPO with all of it (paper claim, Fig. 6a).
        assert result["psnr"]["Nitho"][0] > result["psnr"]["TEMPO"][-1]

    def test_fig6b_kernel_sweep(self):
        result = run_fig6b(PRESET, SEED, kernel_sizes=None, max_eval_tiles=2)
        sizes = result["kernel_sizes"]
        psnr = result["psnr"]["B1"]
        assert len(sizes) == len(psnr)
        optimal_index = sizes.index(min(sizes, key=lambda s: abs(s - result["optimal_size"])))
        assert psnr[optimal_index] > psnr[0]  # the Eq. (10) size beats a much smaller window


class TestAblationDrivers:
    def test_socs_order_ablation_monotone(self):
        result = run_socs_order_ablation(PRESET, SEED, orders=(1, 4, 12), tiles=1)
        psnr = result["psnr_vs_full"]
        assert psnr[-1] >= psnr[0]

    def test_socs_order_ablation_images_every_order(self):
        """A packed bank holds fewer rows than its ``max_socs_order`` (12
        for 24 at focus): every order is its own bank, none is dropped."""
        result = run_socs_order_ablation(PRESET, SEED, tiles=1)
        assert result["orders"] == [1, 2, 4, 8, 16, 24]
        assert len(result["psnr_vs_full"]) == 6
        assert result["full_order"] == 24
        assert result["psnr_vs_full"][-2] > result["psnr_vs_full"][0]

    def test_real_vs_complex(self):
        result = run_real_vs_complex_ablation(PRESET, SEED, max_eval_tiles=1)
        assert set(result["results"]) == {"complex CMLP", "real MLP"}

    def test_rff_sigma_sweep(self):
        result = run_rff_sigma_ablation(PRESET, SEED, sigmas=(2.0, 8.0), max_eval_tiles=1)
        assert len(result["psnr"]) == 2
