"""Tests for the shared bounded memo (repro.utils.lru.LockedLRU).

It backs the per-process layout-reader memo, the device kernel-bank memo and
the sharded executor's engine memo; pinned here are the eviction order and
the one-build-per-residency promise under concurrent first callers.
"""

import threading
import time

from repro.utils.lru import LockedLRU


def builder(log, value):
    def build():
        log.append(value)
        return value
    return build


class TestLockedLRU:
    def test_builds_once_per_residency(self):
        memo, built = LockedLRU(2), []
        assert memo.get_or_build("a", builder(built, 1)) == 1
        assert memo.get_or_build("a", builder(built, 2)) == 1
        assert built == [1] and len(memo) == 1

    def test_evicts_the_least_recently_used(self):
        memo, built = LockedLRU(2), []
        memo.get_or_build("a", builder(built, "a"))
        memo.get_or_build("b", builder(built, "b"))
        memo.get_or_build("a", builder(built, "a"))  # refresh a
        memo.get_or_build("c", builder(built, "c"))  # evicts b
        assert len(memo) == 2
        memo.get_or_build("a", builder(built, "a"))
        memo.get_or_build("b", builder(built, "b"))
        assert built == ["a", "b", "c", "b"]

    def test_clear_forgets_everything(self):
        memo, built = LockedLRU(4), []
        memo.get_or_build("a", builder(built, 1))
        memo.clear()
        assert len(memo) == 0
        memo.get_or_build("a", builder(built, 1))
        assert built == [1, 1]

    def test_concurrent_first_callers_share_one_build(self):
        memo, built = LockedLRU(2), []
        barrier = threading.Barrier(8)
        results = []

        def slow_build():
            time.sleep(0.01)
            built.append(object())
            return built[-1]

        def worker():
            barrier.wait()
            results.append(memo.get_or_build("key", slow_build))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(built) == 1
        assert len(results) == 8 and all(item is built[0] for item in results)
