"""Tests for layout JSON (repro.layout.save_layout) and dataset
persistence (repro.masks.io)."""

import json

import numpy as np
import pytest

from repro.layout import (
    GeometryLayoutReader,
    LayoutFormatError,
    load_layout_file,
    save_layout,
)
from repro.layout.geometry import Rect, rasterize
from repro.masks.datasets import DatasetSpec, build_dataset
from repro.masks.io import load_dataset, save_dataset

EXTENT_NM = 1000.0


@pytest.fixture()
def sample_layout():
    return {"M1": [Rect(10, 20, 100, 50), Rect(300, 400, 50, 200)],
            "V1": [Rect(120, 40, 30, 30)]}


@pytest.fixture(scope="module")
def sample_dataset():
    spec = DatasetSpec("B1", train_count=2, test_count=2, tile_size_px=32, pixel_size_nm=32.0)
    return build_dataset("B1", seed=0, spec=spec)


class TestLayoutIO:
    """``save_layout`` writes what the production reader
    :func:`repro.layout.load_layout_file` reads."""

    def test_roundtrip_preserves_shapes(self, sample_layout, tmp_path):
        path = save_layout(sample_layout, EXTENT_NM,
                           str(tmp_path / "nested" / "layout.json"))
        restored = load_layout_file(path, pixel_size_nm=EXTENT_NM / 32)
        assert restored.shape == (32, 32)  # the recorded extent
        assert list(restored.layers) == sorted(sample_layout)
        assert restored.digest() == GeometryLayoutReader(
            sample_layout, EXTENT_NM / 32, shape=(32, 32)).digest()

    def test_roundtrip_preserves_rasterisation(self, sample_layout, tmp_path):
        path = save_layout(sample_layout, EXTENT_NM,
                           str(tmp_path / "layout.json"))
        restored = load_layout_file(path, pixel_size_nm=EXTENT_NM / 32)
        np.testing.assert_array_equal(
            restored.read_window(0, 0, *restored.shape),
            rasterize([rect for rects in sample_layout.values()
                       for rect in rects], 32, EXTENT_NM / 32))

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError):
            load_layout_file(str(path), pixel_size_nm=8.0)

    def test_rejects_wrong_version(self, sample_layout, tmp_path):
        path = save_layout(sample_layout, EXTENT_NM,
                           str(tmp_path / "layout.json"))
        document = json.loads(open(path).read())
        document["version"] = 999
        open(path, "w").write(json.dumps(document))
        with pytest.raises(LayoutFormatError, match="version 999"):
            load_layout_file(path, pixel_size_nm=8.0)

    def test_a_file_without_a_version_reads_as_version_1(self, sample_layout,
                                                         tmp_path):
        path = save_layout(sample_layout, EXTENT_NM,
                           str(tmp_path / "layout.json"))
        document = json.loads(open(path).read())
        assert document.pop("version") == 1
        unversioned = tmp_path / "unversioned.json"
        unversioned.write_text(json.dumps(document))
        assert load_layout_file(str(unversioned), pixel_size_nm=8.0).digest() \
            == load_layout_file(path, pixel_size_nm=8.0).digest()


class TestDatasetIO:
    def test_roundtrip_preserves_arrays_and_metadata(self, sample_dataset, tmp_path):
        path = save_dataset(sample_dataset, str(tmp_path / "data" / "b1.npz"))
        restored = load_dataset(path)
        assert restored.name == sample_dataset.name
        assert restored.pixel_size_nm == sample_dataset.pixel_size_nm
        assert restored.litho_engine == sample_dataset.litho_engine
        np.testing.assert_array_equal(restored.train_masks, sample_dataset.train_masks)
        np.testing.assert_allclose(restored.test_aerials, sample_dataset.test_aerials)
        np.testing.assert_array_equal(restored.test_resists, sample_dataset.test_resists)

    def test_rejects_foreign_npz(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, values=np.zeros(3))
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_loaded_dataset_supports_fraction_split(self, sample_dataset, tmp_path):
        path = save_dataset(sample_dataset, str(tmp_path / "b1.npz"))
        restored = load_dataset(path)
        assert restored.train_fraction(0.5).num_train == 1
