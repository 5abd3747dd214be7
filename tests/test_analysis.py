"""Tests for the analysis tooling: t-SNE, throughput measurement, reporting, visual dumps."""

import os

import numpy as np
import pytest

from repro.analysis.reporting import format_table, format_value, render_bar_chart, render_series
from repro.analysis.throughput import compare_throughput, measure_throughput, speedup, tile_area_um2
from repro.analysis.tsne import TSNE, cluster_separation, embed_datasets, mask_features
from repro.analysis.visualize import ascii_image, comparison_panel, save_comparison_pgms, write_pgm

RNG = np.random.default_rng(13)


class TestTSNE:
    def test_embedding_shape(self):
        features = RNG.normal(size=(20, 10))
        embedding = TSNE(iterations=50, perplexity=5).fit_transform(features)
        assert embedding.shape == (20, 2)
        assert np.all(np.isfinite(embedding))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TSNE().fit_transform(RNG.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            TSNE().fit_transform(RNG.normal(size=(5,)))
        with pytest.raises(ValueError):
            TSNE(perplexity=1.0)
        with pytest.raises(ValueError):
            TSNE(iterations=0)

    def test_separates_well_separated_clusters(self):
        cluster_a = RNG.normal(loc=0.0, scale=0.1, size=(15, 5))
        cluster_b = RNG.normal(loc=5.0, scale=0.1, size=(15, 5))
        features = np.concatenate([cluster_a, cluster_b])
        embedding = TSNE(iterations=250, perplexity=5, seed=0).fit_transform(features)
        first, second = embedding[:15], embedding[15:]
        centroid_gap = np.linalg.norm(first.mean(axis=0) - second.mean(axis=0))
        spread = 0.5 * (first.std() + second.std())
        assert centroid_gap > 2 * spread

    def test_mask_features_shape_and_normalisation(self, tiny_masks):
        features = mask_features(tiny_masks, resolution=8)
        assert features.shape == (len(tiny_masks), 64)
        np.testing.assert_allclose(np.linalg.norm(features, axis=1), 1.0, atol=1e-9)

    def test_mask_features_translation_invariance(self, tiny_masks):
        mask = tiny_masks[0]
        shifted = np.roll(mask, (7, -5), axis=(0, 1))
        a = mask_features(mask[None], resolution=8)
        b = mask_features(shifted[None], resolution=8)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_embed_datasets_and_separation(self, tiny_masks, tiny_via_masks):
        result = embed_datasets({"B1": tiny_masks, "B2v": tiny_via_masks},
                                samples_per_dataset=4, iterations=80, perplexity=3)
        assert result.embedding.shape[0] == 8
        assert set(result.labels) == {"B1", "B2v"}
        assert cluster_separation(result) > 0
        groups = result.by_label()
        assert groups["B1"].shape == (4, 2)

    def test_embed_datasets_empty_raises(self):
        with pytest.raises(ValueError):
            embed_datasets({"empty": np.zeros((0, 8, 8))})


class TestThroughput:
    def test_tile_area(self):
        assert tile_area_um2(256, 8.0) == pytest.approx(4.194, abs=0.01)
        with pytest.raises(ValueError):
            tile_area_um2(0, 8.0)

    def test_measure_throughput_counts_tiles(self):
        calls = []

        def engine(mask):
            calls.append(1)
            return mask

        masks = [np.zeros((16, 16))] * 3
        result = measure_throughput("dummy", engine, masks, pixel_size_nm=8.0, repeats=2, warmup=1)
        assert len(calls) == 1 + 2 * 3
        assert result.tiles_per_second > 0
        assert result.um2_per_second == pytest.approx(
            result.tiles_per_second * tile_area_um2(16, 8.0))

    def test_measure_requires_masks(self):
        with pytest.raises(ValueError):
            measure_throughput("dummy", lambda m: m, [], pixel_size_nm=8.0)

    def test_compare_and_speedup(self):
        import time

        def fast(mask):
            return mask

        def slow(mask):
            time.sleep(0.002)
            return mask

        masks = [np.zeros((8, 8))] * 2
        results = compare_throughput({"fast": fast, "slow": slow}, masks, pixel_size_nm=8.0)
        assert results["fast"].um2_per_second > results["slow"].um2_per_second
        assert speedup(results, "fast", "slow") > 1.0
        with pytest.raises(KeyError):
            speedup(results, "fast", "missing")


class TestReporting:
    def test_format_value_styles(self):
        assert format_value(3) == "3"
        assert format_value(0.5) == "0.5"
        assert "e" in format_value(1.23e-9)
        assert format_value(True) == "True"
        assert format_value("x") == "x"

    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        table = format_table(rows, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert len({len(line) for line in lines[1:]}) == 1  # fixed width

    def test_format_table_empty(self):
        assert "(empty)" in format_table([], title="t")

    def test_format_table_missing_column(self):
        table = format_table([{"a": 1}], columns=["a", "missing"])
        assert "missing" in table

    def test_render_bar_chart(self):
        chart = render_bar_chart({"a": 10.0, "b": 5.0}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") > lines[1].count("#")
        assert render_bar_chart({}) == "(empty)"

    def test_render_series(self):
        table = render_series({"x": [1, 2], "y": [3.0, 4.0]})
        assert "3" in table and "4" in table
        with pytest.raises(ValueError):
            render_series({"x": [1, 2], "y": [3.0]})
        assert render_series({}) == "(empty)"


class TestVisualize:
    def test_ascii_image_dimensions(self):
        art = ascii_image(RNG.random((32, 64)), width=32)
        lines = art.splitlines()
        assert len(lines[0]) == 32
        assert len(lines) >= 4

    def test_ascii_image_dark_vs_bright(self):
        dark = ascii_image(np.zeros((8, 8)), width=8)
        assert set(dark) <= {" ", "\n"}

    def test_write_pgm(self, tmp_path):
        path = write_pgm(RNG.random((16, 16)), str(tmp_path / "img" / "test.pgm"))
        assert os.path.exists(path)
        with open(path, "rb") as handle:
            header = handle.read(2)
        assert header == b"P5"

    def test_comparison_panel_contains_captions(self):
        panel = comparison_panel({"Mask": np.zeros((8, 8)), "Aerial": np.ones((8, 8))}, width=16)
        assert "Mask" in panel and "Aerial" in panel

    def test_save_comparison_pgms(self, tmp_path):
        paths = save_comparison_pgms({"A b": np.zeros((8, 8))}, str(tmp_path), prefix="fig")
        assert all(os.path.exists(path) for path in paths.values())
        assert all("fig_" in os.path.basename(path) for path in paths.values())
