"""Tests for dataset assembly (repro.masks.datasets)."""

import numpy as np
import pytest

from repro.masks.datasets import (
    PRESETS,
    DatasetSpec,
    LithoDataset,
    build_dataset,
    merge_datasets,
)

SPEC = DatasetSpec("B1", train_count=3, test_count=2, tile_size_px=32, pixel_size_nm=32.0)
SPEC_B2M = DatasetSpec("B2m", train_count=2, test_count=2, tile_size_px=32, pixel_size_nm=32.0)
SPEC_B2V = DatasetSpec("B2v", train_count=3, test_count=2, tile_size_px=32, pixel_size_nm=32.0)


@pytest.fixture(scope="module")
def b1_dataset():
    return build_dataset("B1", seed=0, spec=SPEC)


class TestPresets:
    def test_all_presets_have_all_families(self):
        for preset, specs in PRESETS.items():
            assert set(specs) == {"B1", "B2m", "B2v"}, preset

    def test_relative_sizes_follow_table2(self):
        """B2v has the most training tiles, B2m the fewest — as in the paper's Table II."""
        for specs in PRESETS.values():
            assert specs["B2v"].train_count >= specs["B1"].train_count >= specs["B2m"].train_count

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            build_dataset("B1", preset="huge")

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError):
            build_dataset("B9", preset="tiny")


class TestBuildDataset:
    def test_shapes_and_counts(self, b1_dataset):
        assert b1_dataset.num_train == 3
        assert b1_dataset.num_test == 2
        assert b1_dataset.train_masks.shape == (3, 32, 32)
        assert b1_dataset.train_aerials.shape == (3, 32, 32)
        assert b1_dataset.train_resists.shape == (3, 32, 32)
        assert b1_dataset.tile_size_px == 32

    def test_masks_binary_and_aerials_physical(self, b1_dataset):
        assert set(np.unique(b1_dataset.train_masks)).issubset({0.0, 1.0})
        assert b1_dataset.train_aerials.min() >= -1e-12
        assert b1_dataset.train_aerials.max() < 1.5

    def test_resists_consistent_with_aerials(self, b1_dataset):
        recomputed = (b1_dataset.train_aerials > 0.225).astype(np.uint8)
        np.testing.assert_array_equal(recomputed, b1_dataset.train_resists)

    def test_reproducible_with_seed(self):
        a = build_dataset("B1", seed=3, spec=SPEC)
        b = build_dataset("B1", seed=3, spec=SPEC)
        np.testing.assert_array_equal(a.train_masks, b.train_masks)
        np.testing.assert_array_equal(a.test_aerials, b.test_aerials)

    def test_engine_label(self, b1_dataset):
        assert b1_dataset.litho_engine == "Lithosim"
        b2m = build_dataset("B2m", seed=0, spec=SPEC_B2M)
        assert b2m.litho_engine == "Calibre-like"

    def test_b1opc_is_test_only_and_differs_from_b1(self):
        b1 = build_dataset("B1", seed=0, spec=SPEC)
        b1opc = build_dataset("B1opc", seed=0, spec=SPEC)
        assert b1opc.num_train == 0
        assert b1opc.num_test == b1.num_test
        assert not np.array_equal(b1opc.test_masks, b1.test_masks)

    def test_describe_row(self, b1_dataset):
        row = b1_dataset.describe()
        assert row["dataset"] == "B1"
        assert row["train"] == 3
        assert row["litho_engine"] == "Lithosim"


class TestTrainFraction:
    def test_fraction_counts(self, b1_dataset):
        subset = b1_dataset.train_fraction(0.34)
        assert subset.num_train == 1
        assert subset.num_test == b1_dataset.num_test

    def test_full_fraction_keeps_everything(self, b1_dataset):
        assert b1_dataset.train_fraction(1.0).num_train == b1_dataset.num_train

    def test_invalid_fraction(self, b1_dataset):
        with pytest.raises(ValueError):
            b1_dataset.train_fraction(0.0)
        with pytest.raises(ValueError):
            b1_dataset.train_fraction(1.5)

    def test_subset_masks_come_from_parent(self, b1_dataset):
        subset = b1_dataset.train_fraction(0.67, seed=1)
        for mask in subset.train_masks:
            assert any(np.array_equal(mask, parent) for parent in b1_dataset.train_masks)


class TestMergeAndSuite:
    def test_merge_concatenates(self):
        b2m = build_dataset("B2m", seed=0, spec=SPEC_B2M)
        b2v = build_dataset("B2v", seed=1, spec=SPEC_B2V)
        merged = merge_datasets(b2m, b2v)
        assert merged.num_train == b2m.num_train + b2v.num_train
        assert merged.num_test == b2m.num_test + b2v.num_test
        assert merged.name == "B2m+B2v"

    def test_merge_rejects_mismatched_geometry(self):
        b2m = build_dataset("B2m", seed=0, spec=SPEC_B2M)
        other = build_dataset("B2v", seed=0, spec=DatasetSpec("B2v", 2, 2, 16, 32.0))
        with pytest.raises(ValueError):
            merge_datasets(b2m, other)

    def test_validation_rejects_bad_arrays(self):
        with pytest.raises(ValueError):
            LithoDataset(name="bad",
                         train_masks=np.zeros((2, 4)), train_aerials=np.zeros((2, 4, 4)),
                         train_resists=np.zeros((2, 4, 4)), test_masks=np.zeros((2, 4, 4)),
                         test_aerials=np.zeros((2, 4, 4)), test_resists=np.zeros((2, 4, 4)),
                         pixel_size_nm=8.0, litho_engine="x")
