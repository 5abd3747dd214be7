"""A bounded, lock-guarded least-recently-used memo shared across threads."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

class LockedLRU:
    """A bounded least-recently-used memo that worker threads may share.

    ``get`` -> ``move_to_end`` / ``popitem`` on a bare ``OrderedDict`` is a
    check-then-act: another thread's eviction between the two steps raises
    ``KeyError``.  One lock covers the lookup, the build and the eviction,
    so a value is also built at most once per residency however many
    threads ask for it at the same moment.
    """

    def __init__(self, limit: int):
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._items: "OrderedDict[Hashable, object]" = OrderedDict()

    def get_or_build(self, key: Hashable, build: Callable[[], object]):
        with self._lock:
            value = self._items.get(key)
            if value is None:
                value = build()
                self._items[key] = value
                while len(self._items) > self.limit:
                    self._items.popitem(last=False)
            else:
                self._items.move_to_end(key)
            return value

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
