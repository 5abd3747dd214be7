"""The batched core's thread budget and its three pruned transforms.

Pinned guarantees:

* ``rfft2_columns`` / ``irfft2_zero_extended`` (any window of its output
  rows) / ``ifft2_row_band`` equal the backend's own
  ``rfft2(...)[..., :cols]`` / zero-extended ``irfft2`` / row-zero-extended
  ``ifft2`` **bit for bit**, input untouched, on every backend — the
  overriding one (numpy, on one share or on a budget of two), the
  inheriting one (a transforms-only subclass) and whatever the
  environment's budget builds (CI runs this file per
  ``REPRO_FFT_WORKERS``),
* a call of ``B > 1`` tiles spends ``min(backend.workers, B)`` threads on
  shares of the batch and never more — a one-block batch included; an
  executor call spends the spec's budget the same way whatever its
  ``num_workers``, and no budget moves the spec's fingerprint,
* a share that raises propagates only once every share has settled, leaves
  no thread behind, and the next call works — also in a forked child,
* a call of a single tile starts no thread at all.
"""

import contextlib
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    BACKEND_CELLS,
    SHARES,
    TRANSFORMS_ONLY,
    RecordingBackend,
    bank_aerial,
    cell_backend,
)
from repro.backend import (
    ComputeConfig,
    NumpyFFTBackend,
    get_backend,
    resolve_precision,
)
from repro.engine import (
    EngineSpec,
    ExecutionEngine,
    ShardedExecutor,
    batched,
)
from repro.engine.batched import FORWARD_REVISION
from repro.optics import OpticsConfig


# --------------------------------------------------------------------------- #
# the three optional transforms
# --------------------------------------------------------------------------- #
def _backend(name):
    if name == "env":       # REPRO_FFT_WORKERS as set
        return NumpyFFTBackend()
    return cell_backend(name)


@pytest.mark.parametrize("name", BACKEND_CELLS + ("env",))
@settings(max_examples=60, deadline=None)
@given(height=st.sampled_from([1, 2, 3, 5, 8, 13, 16, 25, 31, 60, 64, 97]),
       width=st.sampled_from([1, 2, 3, 5, 8, 13, 16, 25, 31, 60, 64, 97]),
       cols=st.integers(1, 49), band_rows=st.integers(1, 97),
       window=st.tuples(st.integers(0, 97), st.integers(0, 97)),
       norm=st.sampled_from([None, "ortho", "forward"]),
       single=st.booleans(), seed=st.integers(0, 2 ** 16))
# The production shapes: an odd 29-row band into 60 rows, a 198-row core of
# 256; and an even band into an odd height.
@example(height=60, width=60, cols=29, band_rows=29, window=(0, 60),
         norm="ortho", single=False, seed=0)
@example(height=256, width=256, cols=29, band_rows=29, window=(29, 227),
         norm="forward", single=True, seed=1)
@example(height=97, width=25, cols=7, band_rows=28, window=(3, 94),
         norm=None, single=True, seed=2)
def test_pruned_transforms_equal_the_full_ones_bit_for_bit(
        name, height, width, cols, band_rows, window, norm, single, seed):
    backend = _backend(name)
    cols = min(cols, width // 2 + 1)
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((2, height, width)).astype(
        np.float32 if single else np.float64)
    given_real = real.copy()

    expected = backend.rfft2(given_real, norm=norm)[..., :cols]
    got = backend.rfft2_columns(given_real, cols, norm=norm)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.ascontiguousarray(got).tobytes() \
        == np.ascontiguousarray(expected).tobytes()

    # The band the core inverse-transforms: `cols` columns, the rest zero.
    narrow = np.ascontiguousarray(expected)
    wide = np.zeros(narrow.shape[:-1] + (width // 2 + 1,), narrow.dtype)
    wide[..., :cols] = narrow
    expected = backend.irfft2(wide, s=(height, width), norm=norm)
    given_narrow = narrow.copy()
    got = backend.irfft2_zero_extended(given_narrow, s=(height, width),
                                       norm=norm)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    # ... and any window of its output rows (the core keeps the core's).
    rows = slice(min(window[0], height), min(max(window), height))
    got = backend.irfft2_zero_extended(given_narrow, s=(height, width),
                                       norm=norm, rows=rows)
    assert got.dtype == expected.dtype
    assert np.ascontiguousarray(got).tobytes() \
        == np.ascontiguousarray(expected[..., rows, :]).tobytes()

    # The coherent fields' row band: `n` rows, their first n - n // 2 at the
    # top of `height`, the rest at the bottom, every other row zero.
    n = min(band_rows, height)
    band = (rng.standard_normal((2, n, width))
            + 1j * rng.standard_normal((2, n, width))).astype(
                np.complex64 if single else np.complex128)
    top = n - n // 2
    full = np.zeros((2, height, width), band.dtype)
    full[:, :top] = band[:, :top]
    full[:, height - n // 2:] = band[:, top:]
    expected = backend.ifft2(full, norm=norm)
    given_band = band.copy()
    got = backend.ifft2_row_band(given_band, height, norm=norm)
    assert got.dtype == expected.dtype == band.dtype
    assert got.tobytes() == expected.tobytes()

    # None may modify its input: the core's scratch is reused.
    assert given_real.tobytes() == real.tobytes()
    assert given_narrow.tobytes() == narrow.tobytes()
    assert given_band.tobytes() == band.tobytes()

    if name == TRANSFORMS_ONLY:
        # The base-class defaults are a complete backend: the four 2-D
        # transforms, on the full shapes, and nothing else.
        assert [call for call, _ in backend.calls] \
            == ["rfft2", "rfft2", "irfft2", "irfft2", "irfft2",
                "ifft2", "ifft2"]
        assert {shape for _, shape in backend.calls} == {(2, height, width)}


def test_numpy_rejects_an_unknown_norm_like_its_own_transforms():
    backend = get_backend()
    with pytest.raises(ValueError, match="norm"):
        backend.rfft2_columns(np.zeros((4, 4)), 2, norm="bogus")
    with pytest.raises(ValueError, match="norm"):
        backend.irfft2_zero_extended(np.zeros((4, 2), complex), (4, 4),
                                     norm="bogus")
    with pytest.raises(ValueError, match="norm"):
        backend.ifft2_row_band(np.zeros((2, 4), complex), 4, norm="bogus")


@pytest.mark.parametrize("name", BACKEND_CELLS)
def test_a_row_band_taller_than_its_target_is_refused(name):
    with pytest.raises(ValueError, match="larger than target"):
        cell_backend(name).ifft2_row_band(np.zeros((5, 4), complex), 4)


# --------------------------------------------------------------------------- #
# a numpy backend that watches who calls it
# --------------------------------------------------------------------------- #
class Ledger:
    """Who entered a watched field transform, how often and how many at
    once."""

    def __init__(self, fail_at=None, dwell_s=0.0):
        self.lock = threading.Lock()
        self.fail_at, self.dwell_s = fail_at, dwell_s
        self.calls = self.active = self.peak = 0
        self.threads = set()

    @contextlib.contextmanager
    def entered(self):
        with self.lock:
            self.calls += 1
            call = self.calls
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.threads.add(threading.get_ident())
        try:
            time.sleep(self.dwell_s)   # widen the overlap a race would need
            if call == self.fail_at:
                raise RuntimeError(f"transform {call} broke")
            yield
        finally:
            with self.lock:
                self.active -= 1


class Watched(NumpyFFTBackend):
    """numpy numerics; every coherent-field transform (``ifft2_row_band``,
    one per block) enters the ledger."""

    name = "watched"

    def __init__(self, workers=None, ledger=None):
        super().__init__(workers)
        self.ledger = ledger if ledger is not None else Ledger()

    def ifft2_row_band(self, band, height, norm=None):
        with self.ledger.entered():
            return super().ifft2_row_band(band, height, norm=norm)


@pytest.fixture()
def one_tile_blocks(monkeypatch):
    """Eight 32-px tiles on a 3 x 9 x 9 bank, one tile per block."""
    rng = np.random.default_rng(23)
    kernels = rng.normal(size=(3, 9, 9)) + 1j * rng.normal(size=(3, 9, 9))
    masks = (rng.random((8, 32, 32)) > 0.5).astype(float)
    monkeypatch.setattr(batched, "BLOCK_BYTES", 32 * 32 * 16)
    expected = bank_aerial(masks, kernels, backend=get_backend(1))
    return masks, kernels, expected


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_a_call_occupies_exactly_its_worker_budget(one_tile_blocks, workers):
    masks, kernels, expected = one_tile_blocks
    backend = Watched(workers, Ledger(dwell_s=0.002))
    result = bank_aerial(masks, kernels, backend=backend)
    assert result.tobytes() == expected.tobytes()
    ledger = backend.ledger
    assert ledger.calls == 8 and ledger.active == 0
    assert ledger.peak <= workers
    # Contiguous shares (8 tiles over 5 workers are 4 shares of 2), the
    # first on the calling thread.
    shares = -(-8 // -(-8 // workers))
    assert min(2, shares) <= len(ledger.threads) <= shares
    assert threading.get_ident() in ledger.threads


@pytest.mark.parametrize("fail_at", [1, 2, 5, 8])
def test_a_share_that_raises_settles_the_others_first(one_tile_blocks, fail_at):
    masks, kernels, expected = one_tile_blocks
    bank_aerial(masks, kernels, backend=Watched(3))
    baseline = threading.active_count()   # the persistent helpers exist now

    backend = Watched(3, Ledger(fail_at=fail_at, dwell_s=0.005))
    with pytest.raises(RuntimeError, match=f"transform {fail_at} broke"):
        bank_aerial(masks, kernels, backend=backend)
    # Settled: nobody is inside a transform, no thread was left behind ...
    assert backend.ledger.active == 0
    assert threading.active_count() == baseline
    settled = backend.ledger.calls
    time.sleep(0.03)
    assert backend.ledger.calls == settled
    # ... and the next call images every tile.
    again = bank_aerial(masks, kernels, backend=Watched(3))
    assert again.tobytes() == expected.tobytes()
    assert threading.active_count() == baseline


def test_concurrent_callers_share_the_helper_threads(one_tile_blocks):
    """More callers than cores, each with a three-thread budget, under a
    short switch interval: every result is the serial one."""
    masks, kernels, expected = one_tile_blocks
    results, errors = {}, []

    def caller(index):
        try:
            for _ in range(5):
                results[index] = bank_aerial(
                    masks, kernels, backend=get_backend(3))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(index,))
                   for index in range(6)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert errors == []
    assert len(results) == 6
    assert all(result.tobytes() == expected.tobytes()
               for result in results.values())


def _image_in_child(conn, masks, kernels):
    result = bank_aerial(masks, kernels, backend=get_backend(2))
    conn.send(result.tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_a_forked_child_starts_its_own_helper_threads(one_tile_blocks):
    masks, kernels, expected = one_tile_blocks
    bank_aerial(masks, kernels, backend=get_backend(2))
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_image_in_child,
                            args=(sender, masks, kernels))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "the child never finished imaging"
        assert receiver.recv() == expected.tobytes()
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


# --------------------------------------------------------------------------- #
# one budget, spent in one place
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("tiles", [2, 3, 4])
def test_a_one_block_batch_spends_its_budget_on_tiles(tiles):
    """Up to four 256-px production-bank tiles are one block; on a budget
    of two they still run as two shares."""
    rng = np.random.default_rng(tiles)
    kernels = rng.normal(size=(24, 29, 29)) * (1 + 0.5j)
    masks = (rng.random((tiles, 256, 256)) > 0.6).astype(float)
    assert batched.effective_chunk_tiles(
        tiles, kernels.shape, 256, 256, batched.BLOCK_BYTES) == tiles
    backend = Watched(2)
    result = bank_aerial(masks, kernels, backend=backend)
    assert len(backend.ledger.threads) == 2
    assert threading.get_ident() in backend.ledger.threads
    expected = bank_aerial(masks, kernels, backend=get_backend(1))
    assert result.tobytes() == expected.tobytes()


def test_an_executor_call_spends_the_spec_budget_and_moves_no_identity(
        monkeypatch):
    ledger = Ledger(dwell_s=0.002)
    ifft2_row_band = NumpyFFTBackend.ifft2_row_band

    def watched(self, band, height, norm=None):
        with ledger.entered():
            return ifft2_row_band(self, band, height, norm=norm)

    monkeypatch.setattr(NumpyFFTBackend, "ifft2_row_band", watched)
    config = OpticsConfig(tile_size_px=64, pixel_size_nm=4.0,
                          max_socs_order=None)
    specs = {workers: EngineSpec(config=config, compute=ComputeConfig(
        fft_workers=workers, precision="float64")) for workers in (1, 2, 3)}
    spec = specs[2]
    fingerprint = spec.fingerprint()
    assert fingerprint.endswith(f"|{FORWARD_REVISION}|prec=float64")
    assert {other.fingerprint() for other in specs.values()} == {fingerprint}
    masks = (np.random.default_rng(4).random((12, 64, 64)) > 0.6
             ).astype(float)
    outputs = []
    monkeypatch.setattr(batched, "BLOCK_BYTES", 2 ** 16)  # several per share
    for num_workers in (1, 2):  # accepted and ignored
        ledger.peak, ledger.threads = 0, set()
        with ShardedExecutor(num_workers=num_workers) as executor:
            outputs.append(executor.aerial_batch(spec, masks))
            # One engine per budget: no budget is served another's.
            assert executor.warm(specs[1]).backend.workers == 1
            assert executor.warm(spec).backend.workers == 2
        # Two shares, never more.
        assert ledger.peak <= 2 and len(ledger.threads) == 2
    assert outputs[0].tobytes() == outputs[1].tobytes()
    assert spec.fingerprint() == fingerprint


# --------------------------------------------------------------------------- #
# small calls pay nothing
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", BACKEND_CELLS)
def test_zero_tiles_image_to_nothing(name, workers, monkeypatch):
    """``image_tiles(0, ...)`` reads and writes nothing on every backend,
    and starts no thread and no transform; an empty ``aerial_batch`` is an
    empty ``(0, H, W)`` stack."""
    def refuse(*args):
        raise AssertionError("a zero-tile call imaged or wrote something")

    monkeypatch.setattr(batched, "_helper_threads", refuse)
    backend = RecordingBackend(workers) if name == TRANSFORMS_ONLY \
        else get_backend(workers + (name == SHARES))
    rng = np.random.default_rng(6)
    kernels = rng.normal(size=(3, 9, 9)) + 1j * rng.normal(size=(3, 9, 9))
    for precision in map(resolve_precision, ("float64", "float32")):
        for tile in (32, 16):       # band-limited and direct bodies
            batched.image_tiles(0, refuse, refuse,
                                kernels.astype(precision.complex_dtype),
                                backend, precision, (tile, tile))
    empty = bank_aerial(np.zeros((0, 32, 32)), kernels, backend=backend)
    assert empty.shape == (0, 32, 32) and empty.dtype == np.float64
    if isinstance(backend, RecordingBackend):
        assert backend.calls == []


def test_a_single_tile_starts_no_thread(monkeypatch):
    def refuse():
        raise AssertionError("a one-tile call asked for helper threads")

    monkeypatch.setattr(batched, "_helper_threads", refuse)
    rng = np.random.default_rng(2)
    kernels = rng.normal(size=(24, 29, 29)) * (1 + 0.5j)
    backend = Watched(4)
    for shape in ((1, 256, 256), (1, 64, 64)):
        masks = (rng.random(shape) > 0.6).astype(float)
        bank_aerial(masks, kernels, backend=backend)
    assert backend.ledger.threads == {threading.get_ident()}


def test_thread_hand_off_does_not_tax_a_small_batch():
    """Two, four and eight 64-px production-bank tiles (one, one and two
    blocks): sharing them out must cost no more than it saves, even on one
    CPU.  The one-share and two-share calls alternate in one loop, so a busy
    spell on the host slows both."""
    rng = np.random.default_rng(3)
    kernels = rng.normal(size=(24, 29, 29)) * (1 + 0.5j)
    one, two = (ExecutionEngine(kernels, fft_backend=get_backend(workers))
                for workers in (1, 2))

    def best_interleaved(masks):
        times = ([], [])
        for _ in range(9):
            for engine, spent in zip((one, two), times):
                begin = time.perf_counter()
                engine.aerial_batch(masks)
                spent.append(time.perf_counter() - begin)
        return min(times[0]), min(times[1])

    for tiles in (2, 4, 8):
        masks = (rng.random((tiles, 64, 64)) > 0.6).astype(float)
        # starts the helper thread, warms pocketfft's plans
        two.aerial_batch(masks)
        single, shared = best_interleaved(masks)
        assert shared < 1.5 * single, tiles
