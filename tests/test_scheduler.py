"""Scheduler conformance suite (repro.engine.scheduler).

One shared parametrized file, run cell-by-cell by the CI ``scheduler-matrix``
job across ``{serial, pool, stealing}`` x mp contexts ``{fork, spawn}``.

Pinned guarantees:

* every scheduler's facade output is **bit-for-bit** the serial output, in
  every (scheduler, mp-context) cell,
* true (focus, dose, shard) tasks schedule through all three schedulers —
  ``EngineSpec.dose`` scales only the resist threshold, never the aerial,
* ``StealingPoolScheduler`` equals ``SerialScheduler`` bit-for-bit under
  *randomised* task-completion orders and shard splits (hypothesis),
* abandoning a campaign generator cancels every future that has not started
  (the PR 7 bugfix), and
* ``FaultInjectingScheduler`` chaos — dropped tasks, injected
  ``BrokenProcessPool``, a SIGKILLed live worker — always degrades to the
  serial fallback with identical results.
"""

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineSpec,
    FaultInjectingScheduler,
    PoolScheduler,
    Scheduler,
    SerialScheduler,
    ShardedExecutor,
    StealingPoolScheduler,
    TaskSpec,
    faults_from_env,
    resolve_scheduler,
)
from repro.optics import OpticsConfig
from repro.optics.source import CircularSource

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
SOURCE = CircularSource(sigma=0.6)

SCHEDULER_NAMES = ("serial", "pool", "stealing")
MP_CONTEXTS = ("fork", "spawn")

#: Engines for fake-pool / serial scheduler runs, memoised per fingerprint
#: (kernel banks flow through the process-wide default cache anyway).
_ENGINES = {}


def _engine_provider(spec):
    engine = _ENGINES.get(spec.fingerprint())
    if engine is None:
        engine = spec.build()
        _ENGINES[spec.fingerprint()] = engine
    return engine


@pytest.fixture(scope="module")
def spec():
    return EngineSpec(config=CONFIG, source=SOURCE)


@pytest.fixture(scope="module")
def masks():
    return (np.random.default_rng(11).random((6, 32, 32)) > 0.7).astype(float)


def _require_context(name: str):
    if name not in multiprocessing.get_all_start_methods():
        pytest.skip(f"mp start method {name!r} unavailable on this platform")
    return multiprocessing.get_context(name)


# --------------------------------------------------------------------------- #
# the matrix: sharded == serial bit-for-bit in every cell
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mp_context", MP_CONTEXTS, ids=lambda c: f"ctx_{c}")
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES,
                         ids=lambda s: f"sched_{s}")
def test_sharded_equals_serial_bit_for_bit(scheduler, mp_context, spec,
                                           masks, tmp_path):
    context = _require_context(mp_context)
    reference = ShardedExecutor(
        num_workers=1, cache_dir=str(tmp_path)).aerial_batch(spec, masks)
    with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path),
                         mp_context=context, scheduler=scheduler) as sharded:
        result = sharded.aerial_batch(spec, masks)
        assert sharded.last_used_pool == (scheduler != "serial")
    np.testing.assert_array_equal(result, reference)


@pytest.mark.parametrize("mp_context", MP_CONTEXTS, ids=lambda c: f"ctx_{c}")
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES,
                         ids=lambda s: f"sched_{s}")
def test_focus_dose_shard_campaign_matches_serial(scheduler, mp_context,
                                                  spec, masks, tmp_path):
    """(focus, dose, shard) tasks through every scheduler, any cell."""
    context = _require_context(mp_context)
    conditions = [((focus, dose), spec.with_condition(focus, dose))
                  for focus in (0.0, 60.0) for dose in (0.9, 1.1)]
    serial = ShardedExecutor(num_workers=1, cache_dir=str(tmp_path))
    reference = {key: serial.warm(cond_spec).aerial_batch(masks)
                 for key, cond_spec in conditions}
    with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path),
                         mp_context=context, scheduler=scheduler) as sharded:
        results = dict(sharded.run_conditions(conditions, masks))
    assert set(results) == set(reference)
    for key, expected in reference.items():
        np.testing.assert_array_equal(results[key], expected)


# --------------------------------------------------------------------------- #
# the dose axis
# --------------------------------------------------------------------------- #
class TestEngineSpecDose:
    def test_dose_scales_resist_threshold_only(self, spec, masks):
        dosed = spec.with_condition(0.0, dose=1.25)
        nominal = spec.with_condition(0.0)
        assert dosed.build().resist_model.threshold == pytest.approx(
            CONFIG.resist_threshold / 1.25)
        assert nominal.build().resist_model.threshold == pytest.approx(
            CONFIG.resist_threshold)
        # The aerial is dose-independent: only develop changes.
        np.testing.assert_array_equal(dosed.build().aerial_batch(masks),
                                      nominal.build().aerial_batch(masks))

    def test_dose_changes_fingerprint(self, spec):
        assert spec.with_condition(0.0, 1.1).fingerprint() != \
            spec.with_condition(0.0).fingerprint()
        # Pre-dose fingerprints are unchanged (campaign-store identities!).
        assert "dose" not in spec.fingerprint()
        assert spec.with_condition(30.0).fingerprint() == \
            spec.with_focus(30.0).fingerprint()

    def test_dose_survives_refocus_and_pickling(self, spec):
        import pickle

        dosed = spec.with_condition(40.0, 0.9)
        assert dosed.with_focus(80.0).dose == 0.9
        assert pickle.loads(pickle.dumps(dosed)).fingerprint() == \
            dosed.fingerprint()

    def test_dose_validation(self):
        with pytest.raises(ValueError):
            EngineSpec(config=CONFIG, dose=0.0)


# --------------------------------------------------------------------------- #
# fake pools: deterministic completion control without processes
# --------------------------------------------------------------------------- #
class _ManualPool:
    """Futures resolve only when :meth:`resolve` is called — or never, in
    which case the parent must steal them (cancel succeeds on any future
    that was not resolved)."""

    def __init__(self):
        self.calls = []

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future

        future = Future()
        self.calls.append((future, fn, args, kwargs))
        return future

    def resolve(self, index: int) -> None:
        future, fn, args, kwargs = self.calls[index]
        if future.set_running_or_notify_cancel():
            future.set_result(fn(*args, **kwargs))

    def shutdown(self, *args, **kwargs):
        pass


class _LazyPool:
    """Resolves the first ``eager`` submits in-process, queues the rest
    unresolved forever (they can only be cancelled)."""

    def __init__(self, eager: int):
        self.eager = eager
        self.pending = []
        self.submits = 0

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future

        future = Future()
        self.submits += 1
        if self.submits <= self.eager:
            future.set_result(fn(*args, **kwargs))
        else:
            self.pending.append(future)
        return future

    def shutdown(self, *args, **kwargs):
        pass


# --------------------------------------------------------------------------- #
# scheduler-level conformance (no processes involved)
# --------------------------------------------------------------------------- #
class TestSchedulerInterface:
    def _tasks(self, spec, masks, count=3):
        return [TaskSpec(spec=spec.with_focus(20.0 * index), masks=masks,
                         shard_slice=slice(0, masks.shape[0]),
                         condition=index)
                for index in range(count)]

    def test_serial_scheduler_yields_in_submission_order(self, spec, masks):
        with SerialScheduler(_engine_provider) as scheduler:
            tasks = [scheduler.submit(task)
                     for task in self._tasks(spec, masks)]
            completed = list(scheduler.as_completed())
        assert [task for task, _ in completed] == tasks
        for task, result in completed:
            np.testing.assert_array_equal(
                result, _engine_provider(task.spec).aerial_batch(masks))

    def test_task_spec_carries_fingerprint_condition_shard(self, spec, masks):
        task = TaskSpec(spec=spec, masks=masks, shard_slice=slice(2, 8),
                        condition=(0.0, 1.0))
        assert task.spec_fingerprint == spec.fingerprint()
        assert task.condition == (0.0, 1.0)
        assert (task.shard_slice.start, task.shard_slice.stop) == (2, 8)
        assert task.num_tiles == masks.shape[0]

    def test_serial_cancel_pending_reclaims_queue(self, spec, masks):
        scheduler = SerialScheduler(_engine_provider)
        for task in self._tasks(spec, masks):
            scheduler.submit(task)
        assert scheduler.cancel_pending() == 3
        assert list(scheduler.as_completed()) == []

    def test_pool_scheduler_assembles_any_completion_order(self, spec, masks):
        pool = _ManualPool()
        scheduler = PoolScheduler(lambda: pool, _engine_provider)
        for task in self._tasks(spec, masks):
            scheduler.submit(task)
        for index in (2, 0, 1):  # out of submission order
            pool.resolve(index)
        results = {task.condition: result
                   for task, result in scheduler.as_completed()}
        assert set(results) == {0, 1, 2}
        for task in self._tasks(spec, masks):
            np.testing.assert_array_equal(
                results[task.condition],
                _engine_provider(task.spec).aerial_batch(masks))

    def test_stealing_scheduler_steals_unstarted_work(self, spec, masks):
        pool = _ManualPool()
        scheduler = StealingPoolScheduler(lambda: pool, _engine_provider,
                                          split_factor=3)
        scheduler.poll_interval = 0.001
        task = TaskSpec(spec=spec, masks=masks,
                        shard_slice=slice(0, masks.shape[0]), condition=0)
        scheduler.submit(task)
        assert len(pool.calls) == 3  # split into sub-tasks
        pool.resolve(0)  # workers only ever get to the first sub-task
        completed = dict(scheduler.as_completed())
        assert scheduler.stolen == 2  # the parent computed the rest
        np.testing.assert_array_equal(
            completed[task], _engine_provider(spec).aerial_batch(masks))

    def test_resolve_scheduler_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="stealing"):
            resolve_scheduler("bogus", None, None)
        with pytest.raises(ValueError):
            ShardedExecutor(scheduler="bogus")

    def test_resolve_scheduler_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "stealing")
        scheduler = resolve_scheduler(None, lambda: None, _engine_provider)
        assert isinstance(scheduler, StealingPoolScheduler)
        monkeypatch.delenv("REPRO_SCHEDULER")
        assert isinstance(resolve_scheduler(None, lambda: None, None),
                          PoolScheduler)

    def test_schedulers_are_context_managers(self):
        with SerialScheduler(_engine_provider) as scheduler:
            assert isinstance(scheduler, Scheduler)
            assert not scheduler.uses_pool
        assert PoolScheduler.uses_pool and StealingPoolScheduler.uses_pool


# --------------------------------------------------------------------------- #
# hypothesis: stealing == serial under randomised completion + splits
# --------------------------------------------------------------------------- #
class TestStealingEqualsSerialProperty:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_stealing_matches_serial_bit_for_bit(self, data):
        split_factor = data.draw(st.integers(1, 5), label="split_factor")
        batch = data.draw(st.integers(2, 7), label="batch")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        masks = (np.random.default_rng(seed).random((batch, 32, 32))
                 > 0.7).astype(float)
        conditions = data.draw(st.lists(
            st.tuples(st.sampled_from((0.0, 60.0)),
                      st.sampled_from((0.9, 1.0, 1.1))),
            min_size=1, max_size=3, unique=True), label="conditions")
        base = EngineSpec(config=CONFIG, source=SOURCE)
        tasks = [TaskSpec(spec=base.with_condition(focus, dose),
                          masks=masks, shard_slice=slice(0, batch),
                          condition=(focus, dose))
                 for focus, dose in conditions]

        serial = SerialScheduler(_engine_provider)
        for task in tasks:
            serial.submit(task)
        reference = {task.condition: result
                     for task, result in serial.as_completed()}

        pool = _ManualPool()
        stealing = StealingPoolScheduler(lambda: pool, _engine_provider,
                                         split_factor=split_factor)
        stealing.poll_interval = 0.001
        for task in tasks:
            stealing.submit(task)
        # A random prefix of a random permutation completes "in the pool";
        # everything else stays queued until the parent steals it.
        order = data.draw(st.permutations(range(len(pool.calls))),
                          label="completion_order")
        completes = data.draw(st.integers(0, len(order)), label="completes")
        for index in order[:completes]:
            pool.resolve(index)
        results = {task.condition: result
                   for task, result in stealing.as_completed()}

        assert set(results) == set(reference)
        for key, expected in reference.items():
            np.testing.assert_array_equal(results[key], expected)


# --------------------------------------------------------------------------- #
# the bugfix: abandoning a campaign cancels outstanding futures
# --------------------------------------------------------------------------- #
class TestCancelOnAbandon:
    def test_abandoned_campaign_cancels_unstarted_futures(self, spec, masks,
                                                          tmp_path):
        executor = ShardedExecutor(num_workers=2, cache_dir=str(tmp_path))
        shards = len(executor._shard_slices(masks.shape[0]))
        pool = _LazyPool(eager=shards)  # condition 0 completes, rest hangs
        executor._pool = pool
        specs = [spec.with_focus(focus) for focus in (0.0, 60.0, 120.0)]
        campaign = executor.run_conditions(list(enumerate(specs)), masks)
        index, first = next(campaign)
        assert index == 0
        campaign.close()  # the consumer walks away mid-campaign
        assert pool.pending  # futures were outstanding...
        assert all(future.cancelled() for future in pool.pending), \
            "abandoning the generator must cancel unstarted futures"
        executor._pool = None

    def test_abandoned_serial_campaign_computes_nothing_more(self, spec,
                                                             masks):
        calls = []
        executor = ShardedExecutor(num_workers=1)
        original = executor.warm

        def counting_warm(spec):
            calls.append(spec.fingerprint())
            return original(spec)

        executor.warm = counting_warm
        specs = [spec.with_focus(focus) for focus in (0.0, 60.0, 120.0)]
        campaign = executor.run_conditions(list(enumerate(specs)), masks)
        next(campaign)
        campaign.close()
        assert len(set(calls)) == 1  # only the first focus was ever built


# --------------------------------------------------------------------------- #
# fault injection: chaos with a correctness guarantee
# --------------------------------------------------------------------------- #
class TestFaultInjection:
    def _reference(self, specs, masks, tmp_path):
        executor = ShardedExecutor(num_workers=1, cache_dir=str(tmp_path))
        return [executor.warm(spec).aerial_batch(masks) for spec in specs]

    def test_injected_break_degrades_to_serial(self, spec, masks, tmp_path):
        specs = [spec.with_focus(focus) for focus in (0.0, 60.0, 120.0)]
        reference = self._reference(specs, masks, tmp_path)
        executor = ShardedExecutor(num_workers=2, cache_dir=str(tmp_path))
        executor.scheduler = FaultInjectingScheduler(
            PoolScheduler(executor._pool_handle, executor._task_engine),
            break_after=1)
        results = dict(executor.run_conditions(list(enumerate(specs)),
                                               masks))
        assert executor._pool is None  # the facade closed the "broken" pool
        assert set(results) == {0, 1, 2}
        for index, expected in enumerate(reference):
            np.testing.assert_array_equal(results[index], expected)

    def test_dropped_tasks_are_recomputed_serially(self, spec, masks,
                                                   tmp_path):
        specs = [spec.with_focus(focus) for focus in (0.0, 60.0, 120.0)]
        reference = self._reference(specs, masks, tmp_path)
        executor = ShardedExecutor(num_workers=2, cache_dir=str(tmp_path))
        dropper = FaultInjectingScheduler(
            PoolScheduler(executor._pool_handle, executor._task_engine),
            drop=(0, 3))
        executor.scheduler = dropper
        with executor:
            results = dict(executor.run_conditions(list(enumerate(specs)),
                                               masks))
        assert len(dropper.dropped) == 0  # cancel_pending reclaimed them
        assert set(results) == {0, 1, 2}
        for index, expected in enumerate(reference):
            np.testing.assert_array_equal(results[index], expected)

    def test_killed_worker_mid_campaign_degrades_to_serial(self, spec, masks,
                                                           tmp_path):
        """A real SIGKILL of a live pool worker: the pool breaks naturally,
        the campaign must still finish with bit-identical output."""
        specs = [spec.with_focus(focus) for focus in (0.0, 60.0, 120.0)]
        reference = self._reference(specs, masks, tmp_path)
        executor = ShardedExecutor(num_workers=2, cache_dir=str(tmp_path))
        executor.scheduler = FaultInjectingScheduler(
            PoolScheduler(executor._pool_handle, executor._task_engine),
            kill_after=1)
        with executor:
            results = dict(executor.run_conditions(list(enumerate(specs)),
                                               masks))
        assert set(results) == {0, 1, 2}
        for index, expected in enumerate(reference):
            np.testing.assert_array_equal(results[index], expected)

    def test_faults_from_env_parsing(self, monkeypatch):
        assert faults_from_env("") is None
        assert faults_from_env("break_after=2") == {"break_after": 2}
        assert faults_from_env("drop=0:2,kill_after=3") == \
            {"drop": (0, 2), "kill_after": 3}
        with pytest.raises(ValueError, match="unknown fault"):
            faults_from_env("explode=1")
        monkeypatch.setenv("REPRO_SCHEDULER_FAULTS", "break_after=1")
        assert faults_from_env() == {"break_after": 1}

    def test_env_faults_wrap_named_schedulers(self, spec, masks, tmp_path,
                                              monkeypatch):
        """The CI chaos hook: REPRO_SCHEDULER_FAULTS breaks an unmodified
        run mid-campaign; the output must not change."""
        specs = [spec.with_focus(focus) for focus in (0.0, 60.0, 120.0)]
        reference = self._reference(specs, masks, tmp_path)
        monkeypatch.setenv("REPRO_SCHEDULER_FAULTS", "break_after=1")
        with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path),
                             scheduler="pool") as executor:
            scheduler, owned = executor._make_scheduler()
            assert owned and isinstance(scheduler, FaultInjectingScheduler)
            results = dict(executor.run_conditions(list(enumerate(specs)),
                                               masks))
        assert set(results) == {0, 1, 2}
        for index, expected in enumerate(reference):
            np.testing.assert_array_equal(results[index], expected)

    def test_fault_env_is_documented_default_off(self):
        assert os.environ.get("REPRO_SCHEDULER_FAULTS") is None
        assert faults_from_env() is None
