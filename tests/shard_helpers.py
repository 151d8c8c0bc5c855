"""Helpers shared by the shard test modules (not a test module itself)."""

from __future__ import annotations

import numpy as np

from repro.backend import NumpyBackend


class CopyingBackend(NumpyBackend):
    """A NumPy backend whose ``asarray`` always copies, as device backends
    do: shards built on it hold copies of their weight rows, not views of
    the caller's array, so the caller's updates must be mirrored."""

    def asarray(self, x, dtype=None):
        return np.array(x, dtype=None if dtype is None else self._dtype(dtype))
