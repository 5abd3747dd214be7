"""Tests for the command-line interface (repro.cli)."""

import json
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.masks.io import load_dataset


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "b1.npz")
    exit_code = main(["generate", "--dataset", "B1", "--preset", "tiny",
                      "--seed", "3", "--output", path])
    assert exit_code == 0
    return path


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory, dataset_file):
    path = str(tmp_path_factory.mktemp("cli") / "nitho.npz")
    exit_code = main(["train", "--preset", "tiny", "--seed", "3",
                      "--dataset-file", dataset_file, "--epochs", "3",
                      "--output", path])
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_preset_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--output", "x.npz", "--preset", "huge"])


class TestGenerate:
    def test_creates_loadable_dataset(self, dataset_file):
        assert os.path.exists(dataset_file)
        dataset = load_dataset(dataset_file)
        assert dataset.name == "B1"
        assert dataset.num_train > 0
        assert dataset.num_test > 0


class TestTrainEvaluateSimulate:
    def test_checkpoint_created(self, checkpoint_file):
        assert os.path.exists(checkpoint_file)
        with np.load(checkpoint_file) as archive:
            assert len(archive.files) > 0

    def test_evaluate_writes_json_metrics(self, dataset_file, checkpoint_file, tmp_path, capsys):
        json_path = str(tmp_path / "metrics.json")
        exit_code = main(["evaluate", "--preset", "tiny", "--seed", "3",
                          "--dataset-file", dataset_file,
                          "--checkpoint", checkpoint_file,
                          "--json-output", json_path])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "aerial" in captured and "resist" in captured
        with open(json_path) as handle:
            metrics = json.load(handle)
        assert set(metrics) == {"aerial", "resist"}
        assert metrics["aerial"]["mse"] >= 0.0
        assert 0.0 <= metrics["resist"]["miou"] <= 100.0

    def test_simulate_with_checkpoint(self, dataset_file, checkpoint_file, capsys):
        exit_code = main(["simulate", "--preset", "tiny", "--seed", "3",
                          "--dataset-file", dataset_file,
                          "--checkpoint", checkpoint_file, "--tiles", "2"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "checkpoint vs golden" in captured

    def test_simulate_without_checkpoint(self, dataset_file, capsys):
        exit_code = main(["simulate", "--preset", "tiny", "--seed", "3",
                          "--dataset-file", dataset_file, "--tiles", "1"])
        assert exit_code == 0
        assert "golden self-consistency" in capsys.readouterr().out

    def test_train_rejects_test_only_dataset(self, tmp_path):
        opc_path = str(tmp_path / "b1opc.npz")
        assert main(["generate", "--dataset", "B1opc", "--preset", "tiny",
                     "--output", opc_path]) == 0
        exit_code = main(["train", "--preset", "tiny", "--dataset-file", opc_path,
                          "--epochs", "1", "--output", str(tmp_path / "ckpt.npz")])
        assert exit_code == 2


class TestImagingVerbsRejectBadInput:
    """Unusable user input to the imaging verbs is one ``error:`` line and
    exit 2 — like ``campaign-report`` on a missing store — never a traceback,
    and nothing is written: no kernel bank is even built."""

    @pytest.fixture
    def bad_inputs(self, tmp_path):
        from repro.layout.gdsii import GDSBoundary, GDSCell, write_gds

        not_gds = tmp_path / "nul.gds"
        not_gds.write_bytes(b"abc\0\0\0def\0")
        square = [GDSBoundary(1, ((0, 0), (64, 0), (64, 64), (0, 64)))]
        two_tops = tmp_path / "twotop.gds"
        write_gds({"A": GDSCell("A", square, []),
                   "B": GDSCell("B", square, [])}, str(two_tops))
        wire = tmp_path / "wire.gds"
        plain = write_gds({"TOP": GDSCell("TOP", square, [])})
        # ENDSTR and ENDLIB close the stream; a bare PATH, ENDEL goes first
        wire.write_bytes(plain[:-8] + b"\x00\x04\x09\x00\x00\x04\x11\x00"
                         + plain[-8:])
        return {
            "missing file": (["--input", str(tmp_path / "nope.gds")],
                             "no layout file"),
            "not a layout": (["--input", str(not_gds)], "not a layout file"),
            "two top cells": (["--input", str(two_tops)],
                              f"error: {two_tops}: ambiguous top cell: the "
                              f"layout has 2 top cells (A, B) and must have "
                              f"exactly one; re-export it with a single top "
                              f"cell (offset 0)\n"),
            "PATH element": (["--input", str(wire)],
                             "PATH element in structure 'TOP' is not "
                             "supported"),
            "unknown source": (["--source", "nosuch"], "unknown source type"),
            "guard too wide": (["--guard", "40"],
                               "guard band 40 px leaves no tile core"),
            "bad tolerance": (["--tolerance", "1.5"],
                              "tolerance must be in (0, 1)"),
            "negative target": (["--target-cd", "-5"],
                                "target_cd_nm must be positive"),
        }

    @pytest.mark.parametrize("case,verb", [
        (case, verb)
        for case in ("missing file", "not a layout", "two top cells",
                     "PATH element", "unknown source", "guard too wide")
        for verb in ("image-layout", "sweep-window")] + [
        (case, "sweep-window") for case in ("bad tolerance",
                                            "negative target")])
    def test_error_line_exit_2_no_output(self, verb, case, bad_inputs,
                                         tmp_path, capsys, monkeypatch):
        from repro.engine import KernelBankCache

        def no_bank(*args, **kwargs):
            raise AssertionError("a kernel bank was built for bad input")

        monkeypatch.setattr(KernelBankCache, "get_kernels", no_bank)
        arguments, message = bad_inputs[case]
        output = tmp_path / "out.npz"
        exit_code = main([verb, "--width", "64", "--height", "64",
                          "--tile-size", "32", "--pixel-size-nm", "8",
                          "--output", str(output)] + arguments)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not output.exists()

    @pytest.mark.parametrize("verb", ["image-layout", "sweep-window"])
    def test_no_backend_is_selected_by_name(self, verb, tmp_path, capsys,
                                            monkeypatch):
        """numpy is the one FFT library: ``--fft-backend`` is an unknown
        flag (argparse exits 2), and an old ``REPRO_FFT_BACKEND`` in the
        environment changes nothing."""
        arguments = [verb, "--width", "64", "--height", "64",
                     "--tile-size", "32", "--pixel-size-nm", "8",
                     "--output", str(tmp_path / "out.npz")]
        with pytest.raises(SystemExit) as excinfo:
            main(arguments + ["--fft-backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --fft-backend" \
            in capsys.readouterr().err
        assert not (tmp_path / "out.npz").exists()
        monkeypatch.setenv("REPRO_FFT_BACKEND", "fakegpu")
        assert main(arguments) == 0
        assert (tmp_path / "out.npz").exists()

    def test_an_error_while_imaging_keeps_its_traceback(self, tmp_path,
                                                        monkeypatch):
        from repro.engine import ExecutionEngine

        def broken(self, *args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(ExecutionEngine, "image_layout", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["image-layout", "--width", "64", "--height", "64",
                  "--tile-size", "32", "--pixel-size-nm", "8",
                  "--output", str(tmp_path / "out.npz")])


class TestTheEnvironmentIsNoPolicy:
    """Precision and tile caching have one spelling, the flags: the old
    ``REPRO_PRECISION`` / ``REPRO_TILE_CACHE`` switch nothing, and
    ``REPRO_TILE_CACHE_DIR`` only says where the disk tier lives."""

    ARGUMENTS = ["image-layout", "--width", "64", "--height", "64",
                 "--tile-size", "32", "--pixel-size-nm", "8", "--guard", "8"]

    def run(self, output, capsys, *flags):
        assert main([*self.ARGUMENTS, *flags, "--output", str(output)]) == 0
        with np.load(output) as saved:
            arrays = {key: saved[key] for key in saved.files}
        return arrays, capsys.readouterr().out

    def test_deleted_variables_are_ignored(self, tmp_path, capsys,
                                           monkeypatch):
        from repro.engine import tile_cache as tile_cache_module

        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        for name in ("REPRO_PRECISION", "REPRO_TILE_CACHE",
                     "REPRO_TILE_CACHE_DIR"):
            monkeypatch.delenv(name, raising=False)
        clean, _ = self.run(tmp_path / "clean.npz", capsys)

        tiles = tmp_path / "tiles"
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        monkeypatch.setenv("REPRO_TILE_CACHE", "1")
        monkeypatch.setenv("REPRO_TILE_CACHE_DIR", str(tiles))
        dirty, printed = self.run(tmp_path / "dirty.npz", capsys)
        assert sorted(dirty) == sorted(clean)
        for key, array in clean.items():
            assert dirty[key].dtype == array.dtype, key
            assert dirty[key].tobytes() == array.tobytes(), key
        assert "tile cache:" not in printed
        assert not list(tiles.glob("tiles-*.npz"))

        cached, printed = self.run(tmp_path / "cached.npz", capsys,
                                   "--tile-cache")
        assert "tile cache:" in printed
        assert list(tiles.glob("tiles-*.npz"))
        for key, array in clean.items():
            assert cached[key].tobytes() == array.tobytes(), key

    @pytest.mark.parametrize("verb", ["image-layout", "sweep-window"])
    def test_imaging_verbs_take_no_preset(self, verb, capsys):
        """Only the synthetic layout's ``--seed`` is theirs."""
        assert build_parser().parse_args([verb, "--seed", "4"]).seed == 4
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([verb, "--preset", "tiny"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --preset" in capsys.readouterr().err
