#!/usr/bin/env python
"""Persisted-identity compatibility: what the parent commit wrote, HEAD reads.

Three things outlive a process and are found again by *name*: a campaign
store (``EngineSpec.fingerprint()`` + layout digest in its manifest), the
tile-result cache's disk tier (``tiles-*.npz``, keyed by the kernel
fingerprint) and the kernel-bank cache's (``kernels-*.npz``, keyed by the
optics fingerprint).  A refactor that moves any of those strings silently
turns every stored campaign into a refusal and every cache entry into a miss.
This script writes all three **with the parent checkout's code** and reads
them **with this checkout's**, through the real CLI, on
``tests/data/aref_grid.gds``.  Which outcomes it demands is decided by the
code, not by a flag: ``kernel_fingerprint()`` of one fixed bank decides the
store and the tile cache, the ``kernels-*.npz`` name one fixed optics gets
decides the kernel banks, each computed under each checkout.

Equal — the forward's bits did not move, everything must still be found:

1. parent: ``sweep-window --store`` with ``REPRO_TILE_CACHE_DIR`` and
   ``REPRO_KERNEL_CACHE_DIR`` set (a fresh campaign: 9 computed),
2. HEAD: the same command with ``--resume`` — every condition must resume,
   ``0 computed``, and the focus-exposure matrix must be equal bit for bit,
3. HEAD: the same campaign into a fresh store — every tile must be served
   from the parent's tile cache (``0 imaged``), neither cache directory may
   gain a file, and the matrix and every stored per-focus aerial must be
   ``np.array_equal`` to the parent's.

Different — HEAD declares that its forward produces other bits
(``repro.engine.batched.FORWARD_REVISION`` moved), so nothing imaged by the
parent may be reused and nothing else may move:

2. HEAD ``--resume`` on the parent's store exits non-zero naming the identity
   mismatch and leaves every byte of the store as it was,
3. HEAD runs the campaign into a fresh store: every tile the parent imaged is
   imaged again, none is loaded from the parent's ``tiles-*.npz``, whose files
   stay byte-identical.

Then the kernel banks, on a directory holding only the parent's
``kernels-*.npz``.  Same name — the bank is built as the parent built it:

4. HEAD, in process: the three per-focus banks load with
   ``decompositions == 0``; then float32 and ``auto`` engines built on HEAD
   from those files decompose nothing, add no file, and have the
   ``kernel_fingerprint()`` of the parent's float32 engine (the same snippet
   run on the parent, against a copy of the directory) — unless the
   forward's identity moved, which that fingerprint names too.

Moved name — HEAD builds its banks another way (the cache key names
``repro.optics.socs.BANK_BUILD``), so no parent bank may be served:

4. HEAD decomposes all three foci, loads none and reads no file as torn;
   its float32 and ``auto`` engines decompose the one bank they share; the
   parent's bank files stay byte-identical.

Usage (CI: ``git worktree add /tmp/parent HEAD^`` first; no network)::

    PYTHONPATH=src python tools/check_persisted_identities.py /tmp/parent
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FOCI = (-40.0, 0.0, 40.0)
SWEEP = ["-m", "repro.cli", "sweep-window", "--input",
         os.path.join(REPO_ROOT, "tests", "data", "aref_grid.gds"),
         "--tile-size", "32", "--pixel-size-nm", "8", "--guard", "8",
         "--focus=" + ",".join(f"{focus:g}" for focus in FOCI),
         "--dose", "0.95,1.0,1.05", "--target-cd", "64",
         "--tile-cache", "--store-aerials"]
# What decides the mode: the tile-cache key of one fixed bank.
FORWARD_IDENTITY = ["-c", (
    "import numpy as np; from repro.engine import ExecutionEngine; "
    "bank = np.arange(75.0).reshape(3, 5, 5) * (1 + 0.5j); "
    "print(ExecutionEngine(bank).kernel_fingerprint())")]
# What decides the kernel-bank outcome: the file name one fixed bank gets.
BANK_IDENTITY = ["-c", (
    "import os, tempfile\n"
    "from repro.engine import KernelBankCache\n"
    "from repro.optics.pupil import Pupil\n"
    "from repro.optics.simulator import OpticsConfig\n"
    "from repro.optics.source import CircularSource\n"
    "with tempfile.TemporaryDirectory() as directory:\n"
    "    KernelBankCache(cache_dir=directory).get_kernels(\n"
    "        OpticsConfig(tile_size_px=32, pixel_size_nm=8.0),\n"
    "        CircularSource(sigma=0.6), Pupil())\n"
    "    print(*sorted(os.listdir(directory)))")]
# Step 4's float32 / auto engines from the kernel-cache directory argv[1].
SINGLE_PRECISION_ENGINES = ["-c", (
    "import json, sys\n"
    "from repro.backend import ComputeConfig\n"
    "from repro.engine import ExecutionEngine, KernelBankCache\n"
    "from repro.optics.simulator import OpticsConfig\n"
    "banks = KernelBankCache(cache_dir=sys.argv[1])\n"
    "engines = {precision: ExecutionEngine.for_optics(\n"
    "    OpticsConfig(tile_size_px=32, pixel_size_nm=8.0), cache=banks,\n"
    "    compute=ComputeConfig(precision=precision))\n"
    "    for precision in ('float32', 'auto')}\n"
    "print(json.dumps({'decompositions': banks.stats.decompositions,\n"
    "                  **{name: [engine.precision.name,\n"
    "                            engine.kernel_fingerprint()]\n"
    "                     for name, engine in engines.items()}}))")]


def run(checkout: str, work: str, *arguments: str, refused=False) -> str:
    """``python *arguments`` on ``checkout``'s code and the shared cache
    directories; ``refused`` demands a non-zero exit and returns stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               REPRO_TILE_CACHE_DIR=os.path.join(work, "tiles"),
               REPRO_KERNEL_CACHE_DIR=os.path.join(work, "kernels"))
    done = subprocess.run([sys.executable, *arguments],
                          env=env, capture_output=True, text=True)
    if (done.returncode != 0) != refused:
        raise SystemExit(f"{checkout}: python {' '.join(arguments)} "
                         f"exited {done.returncode}\n{done.stderr}")
    return done.stderr if refused else done.stdout


def expect(text: str, output: str) -> None:
    if text not in output:
        raise SystemExit(f"expected {text!r} in:\n{output}")
    print(f"  ok: {text}")


def same_arrays(ours: str, theirs: str) -> None:
    with np.load(ours) as one, np.load(theirs) as two:
        assert sorted(one.files) == sorted(two.files), (one.files, two.files)
        for key in one.files:
            assert np.array_equal(one[key], two[key]), (ours, key)


def cache_files(work: str) -> list:
    return sorted(glob.glob(os.path.join(work, "tiles", "*"))
                  + glob.glob(os.path.join(work, "kernels", "*")))


def content(paths) -> dict:
    """Path -> sha1 of its bytes."""
    digests = {}
    for path in paths:
        with open(path, "rb") as handle:
            digests[path] = hashlib.sha1(handle.read()).hexdigest()
    return digests


def tile_cache_counters(store: str) -> dict:
    with open(os.path.join(store, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)["tile_cache"]


def check_compatible(work: str, store: str, parent_npz: str, written) -> None:
    """The forward's bits did not move: resume, hit, equal arrays."""
    print("HEAD resumes the parent's store")
    resumed_npz = os.path.join(work, "resumed.npz")
    expect("(0 computed, 9 resumed)",
           run(REPO_ROOT, work, *SWEEP, "--store", store, "--resume",
               "--output", resumed_npz))
    same_arrays(resumed_npz, parent_npz)

    print("HEAD recomputes the campaign off the parent's cache files")
    again = os.path.join(work, "campaign-again")
    again_npz = os.path.join(work, "again.npz")
    output = run(REPO_ROOT, work, *SWEEP, "--store", again,
                 "--output", again_npz)
    expect("(9 computed, 0 resumed)", output)
    expect("hit rate, 0 imaged)", output)
    same_arrays(again_npz, parent_npz)
    aerials = sorted(glob.glob(os.path.join(store, "aerial_f*.npy")))
    assert len(aerials) == len(FOCI), aerials
    for path in aerials:
        assert np.array_equal(
            np.load(path),
            np.load(os.path.join(again, os.path.basename(path)))), path
    assert cache_files(work) == written, \
        sorted(set(cache_files(work)) - set(written))
    print(f"  ok: {len(aerials)} aerials + matrix np.array_equal, "
          f"no new file beside the parent's {len(written)}")


def check_declared_break(work: str, store: str, written) -> None:
    """HEAD's forward produces other bits: refuse the store, re-image every
    tile, touch nothing the parent wrote."""
    print("HEAD refuses to resume the parent's store")
    stored = sorted(glob.glob(os.path.join(store, "*")))
    before = content(stored + written)
    expect("records a different campaign",
           run(REPO_ROOT, work, *SWEEP, "--store", store, "--resume",
               "--output", os.path.join(work, "resumed.npz"), refused=True))
    assert sorted(glob.glob(os.path.join(store, "*"))) == stored
    assert content(stored) == {path: before[path] for path in stored}
    print(f"  ok: {len(stored)} store files byte-identical")

    print("HEAD images the campaign afresh beside the parent's tile cache")
    again = os.path.join(work, "campaign-again")
    expect("(9 computed, 0 resumed)",
           run(REPO_ROOT, work, *SWEEP, "--store", again,
               "--output", os.path.join(work, "again.npz")))
    ours, theirs = tile_cache_counters(again), tile_cache_counters(store)
    assert ours["disk_loads"] == 0, ours
    assert ours["misses"] == theirs["misses"] > 0, (ours, theirs)
    assert content(written) == {path: before[path] for path in written}
    print(f"  ok: {ours['misses']} tiles imaged (the parent imaged as many), "
          f"0 loaded from disk, the parent's {len(written)} cache files "
          f"byte-identical")


def check_kernel_banks(work: str, parent: str, written, moved: bool,
                       forward_moved: bool) -> None:
    """HEAD on directories of the parent's bank files only: loads them all
    when its banks are named as the parent's, else builds its own and
    leaves the parent's byte-identical.  The engines' ``kernel_fingerprint``
    also names the forward, so it moves when either did."""
    theirs = [path for path in written
              if os.path.basename(path).startswith("kernels-")]
    before = content(theirs)

    def parent_banks(name: str) -> str:
        directory = os.path.join(work, name)
        os.makedirs(directory)
        for path in theirs:
            shutil.copy(path, directory)
        return directory

    def files(directory: str) -> dict:
        return {os.path.basename(path): digest for path, digest in
                content(glob.glob(os.path.join(directory, "*"))).items()}

    from repro.backend import ComputeConfig
    from repro.engine import EngineSpec, KernelBankCache
    from repro.optics.simulator import OpticsConfig

    built = len(FOCI) if moved else 0
    print(f"HEAD serves the three foci: {built} built, "
          f"{len(FOCI) - built} loaded from the parent's files")
    kernels = parent_banks("parent-banks-foci")
    banks = KernelBankCache(cache_dir=kernels)
    spec = EngineSpec(config=OpticsConfig(tile_size_px=32,
                                          pixel_size_nm=8.0),
                      compute=ComputeConfig(precision="float64"))
    for focus in FOCI:
        spec.with_focus(focus).build(cache=banks)
    assert banks.stats.decompositions == built, banks.stats
    assert banks.stats.disk_loads == len(FOCI) - built, banks.stats
    assert banks.stats.disk_errors == 0, banks.stats
    print(f"  ok: decompositions == {built}, "
          f"disk_loads == {len(FOCI) - built}")

    print("HEAD builds float32 / auto engines off the parent's banks")
    kernels = parent_banks("parent-banks-single")
    ours, parents = (json.loads(run(checkout, work,
                                    *SINGLE_PRECISION_ENGINES, directory))
                     for checkout, directory in (
                         (REPO_ROOT, kernels),
                         (parent, parent_banks("parent-banks-theirs"))))
    new = 1 if moved else 0
    assert ours["decompositions"] == new, ours
    assert len(files(kernels)) == len(theirs) + new, sorted(files(kernels))
    assert ours["float32"] == ours["auto"], ours
    differs = moved or forward_moved
    assert (ours["float32"][1] == parents["float32"][1]) != differs, \
        (ours, parents)
    assert content(theirs) == before
    for directory in ("parent-banks-foci", "parent-banks-single"):
        kept = files(os.path.join(work, directory))
        assert all(kept[os.path.basename(path)] == before[path]
                   for path in theirs), directory
    print(f"  ok: decompositions == {new}, kernel_fingerprint "
          f"{ours['float32'][1]} {'!=' if differs else '=='} the parent's "
          f"float32 engine's, the parent's {len(theirs)} bank files "
          f"byte-identical")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    arguments = parser.parse_args()
    parent = os.path.abspath(arguments.parent)
    with tempfile.TemporaryDirectory(prefix="identity-compat-") as work:
        store = os.path.join(work, "campaign")
        parent_npz = os.path.join(work, "parent.npz")

        print(f"parent ({parent}) writes store + tile cache + kernel cache")
        expect("(9 computed, 0 resumed)",
               run(parent, work, *SWEEP, "--store", store,
                   "--output", parent_npz))
        written = cache_files(work)
        assert any("tiles-" in path for path in written), written
        assert any("kernels-" in path for path in written), written

        identities = [run(checkout, work, *FORWARD_IDENTITY)
                      for checkout in (parent, REPO_ROOT)]
        forward_moved = identities[0] != identities[1]
        if not forward_moved:
            check_compatible(work, store, parent_npz, written)
        else:
            print(f"forward identity moved: {identities[0].strip()} -> "
                  f"{identities[1].strip()} (a declared break)")
            check_declared_break(work, store, written)

        bank_names = [run(checkout, work, *BANK_IDENTITY).strip()
                      for checkout in (parent, REPO_ROOT)]
        if bank_names[0] != bank_names[1]:
            print(f"kernel-bank name moved: {bank_names[0]} -> "
                  f"{bank_names[1]} (built another way)")
        check_kernel_banks(work, parent, written,
                           moved=bank_names[0] != bank_names[1],
                           forward_moved=forward_moved)
    print("persisted identities: safe against the parent checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
