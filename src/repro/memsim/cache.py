"""Set-associative LRU cache simulation with write-back accounting.

Functional-simulation substrate replacing the paper's hardware counters:
a cache is simulated exactly (true LRU within each set), returning a
per-access miss mask so levels can be chained (L2 sees only L1 misses),
plus the number of dirty-line write-backs — the outbound half of the
bandwidth the paper's effective-bandwidth argument is about.

Two engines share this entry point.  The **reference** engine is the
original scalar implementation below: plain Python over pre-extracted
lists, the ground truth every optimization is checked against.  The
**fast** engine (:mod:`repro.memsim.fastsim`) re-derives the identical
miss masks and write-back counts with vectorized numpy set-partitioned
processing, run-length compression, and a reuse-distance-style
fully-associative path — several times faster on multi-million access
traces.  Select per call via ``engine=`` or globally via the
``REPRO_ENGINE`` environment variable; results are bit-identical (a
property-test suite pins the equivalence).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..lang import SimulationError

#: Engine names accepted by ``simulate_cache*``.
ENGINES = ("fast", "reference")


def default_engine() -> str:
    """Engine used when none is requested (``REPRO_ENGINE`` overrides).

    The one parser of that variable: the CLI, the harness and the raw
    simulators all reject an unknown value identically.
    """
    engine = os.environ.get("REPRO_ENGINE", "fast")
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown REPRO_ENGINE {engine!r}; expected one of {ENGINES}"
        )
    return engine


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    assoc: int  # 0 = fully associative

    def __post_init__(self) -> None:
        if self.size_bytes % self.line_bytes:
            raise SimulationError(f"{self.name}: size not a multiple of line size")
        lines = self.size_bytes // self.line_bytes
        if self.assoc and lines % self.assoc:
            raise SimulationError(f"{self.name}: lines not a multiple of assoc")
        if self.assoc and self.assoc > lines:
            raise SimulationError(f"{self.name}: assoc exceeds line count")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def line_elems(self) -> int:
        """Array elements per line (the unit the static analyses count)."""
        from .geometry import ELEM_BYTES

        return max(1, self.line_bytes // ELEM_BYTES)

    @property
    def num_sets(self) -> int:
        return 1 if self.assoc == 0 else self.num_lines // self.assoc

    @property
    def ways(self) -> int:
        return self.num_lines if self.assoc == 0 else self.assoc

    def scaled(self, factor: float) -> "CacheConfig":
        """Shrink/grow capacity, preserving line size and associativity.

        Clamped so any positive factor yields a valid geometry: at least
        one full set (``num_lines >= assoc``, rounded to a multiple of
        the associativity) and at least one line when fully associative.
        """
        lines = max(1 if self.assoc == 0 else self.assoc,
                    int(self.num_lines * factor))
        if self.assoc:
            lines = max(self.assoc, (lines // self.assoc) * self.assoc)
        return CacheConfig(self.name, lines * self.line_bytes, self.line_bytes, self.assoc)


@dataclass(frozen=True)
class CacheResult:
    """Outcome of simulating one cache level."""

    miss: np.ndarray  # per-access miss mask
    writebacks: int  # dirty lines evicted (plus dirty residue at the end)

    @property
    def misses(self) -> int:
        return int(self.miss.sum())


def simulate_cache(
    config: CacheConfig, addresses: np.ndarray, engine: Optional[str] = None
) -> np.ndarray:
    """Simulate one cache level; returns the per-access miss mask."""
    return simulate_cache_writeback(config, addresses, None, engine=engine).miss


def simulate_cache_writeback(
    config: CacheConfig,
    addresses: np.ndarray,
    writes: Optional[np.ndarray],
    engine: Optional[str] = None,
) -> CacheResult:
    """Simulate with write-back accounting.

    ``writes`` marks store accesses (None = all loads).  A dirty line
    contributes one write-back when evicted; dirty lines still resident at
    the end are flushed and counted too (the data must eventually reach
    memory).  ``engine`` selects the implementation ("fast" or
    "reference"); both return bit-identical results.
    """
    engine = engine or default_engine()
    if engine not in ENGINES:
        raise SimulationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    lines = (np.asarray(addresses, dtype=np.int64) // config.line_bytes)
    wr = (
        np.zeros(len(lines), dtype=bool)
        if writes is None
        else np.asarray(writes, dtype=bool)
    )
    if engine == "fast":
        from .fastsim import simulate_fast

        return simulate_fast(config, lines, wr)
    from ..obs import metrics

    metrics.inc("engine.reference.calls")
    if config.assoc == 0 or config.num_sets == 1:
        return _fully_associative(lines, wr, config.ways)
    if config.assoc == 1:
        return _direct_mapped(lines, wr, config.num_sets)
    if config.assoc == 2:
        return _two_way(lines, wr, config.num_sets)
    return _n_way(lines, wr, config.num_sets, config.assoc)


def _fully_associative(
    lines: np.ndarray, writes: np.ndarray, capacity: int
) -> CacheResult:
    miss = np.zeros(len(lines), dtype=bool)
    lru: OrderedDict[int, bool] = OrderedDict()  # line -> dirty
    writebacks = 0
    for t, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        if line in lru:
            dirty = lru.pop(line)
            lru[line] = dirty or w
        else:
            miss[t] = True
            if len(lru) >= capacity:
                _, victim_dirty = lru.popitem(last=False)
                writebacks += victim_dirty
            lru[line] = w
    writebacks += sum(lru.values())
    return CacheResult(miss, writebacks)


def _direct_mapped(lines: np.ndarray, writes: np.ndarray, num_sets: int) -> CacheResult:
    miss = np.zeros(len(lines), dtype=bool)
    slots = [-1] * num_sets
    dirty = [False] * num_sets
    writebacks = 0
    for t, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        s = line % num_sets
        if slots[s] != line:
            miss[t] = True
            writebacks += dirty[s] and slots[s] != -1
            slots[s] = line
            dirty[s] = w
        else:
            dirty[s] = dirty[s] or w
    writebacks += sum(d and s != -1 for d, s in zip(dirty, slots))
    return CacheResult(miss, writebacks)


def _two_way(lines: np.ndarray, writes: np.ndarray, num_sets: int) -> CacheResult:
    miss = np.zeros(len(lines), dtype=bool)
    mru = [-1] * num_sets
    lru = [-1] * num_sets
    mru_d = [False] * num_sets
    lru_d = [False] * num_sets
    writebacks = 0
    for t, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        s = line % num_sets
        a = mru[s]
        if a == line:
            mru_d[s] = mru_d[s] or w
            continue
        if lru[s] == line:
            # swap to MRU
            mru[s], lru[s] = line, a
            mru_d[s], lru_d[s] = lru_d[s] or w, mru_d[s]
            continue
        miss[t] = True
        writebacks += lru_d[s] and lru[s] != -1
        lru[s], lru_d[s] = a, mru_d[s]
        mru[s], mru_d[s] = line, w
    for s in range(num_sets):
        writebacks += mru_d[s] and mru[s] != -1
        writebacks += lru_d[s] and lru[s] != -1
    return CacheResult(miss, writebacks)


def _n_way(
    lines: np.ndarray, writes: np.ndarray, num_sets: int, assoc: int
) -> CacheResult:
    miss = np.zeros(len(lines), dtype=bool)
    sets: list[OrderedDict[int, bool]] = [OrderedDict() for _ in range(num_sets)]
    writebacks = 0
    for t, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        s = line % num_sets
        ways = sets[s]
        if line in ways:
            dirty = ways.pop(line)
            ways[line] = dirty or w
        else:
            miss[t] = True
            if len(ways) >= assoc:
                _, victim_dirty = ways.popitem(last=False)
                writebacks += victim_dirty
            ways[line] = w
    for ways in sets:
        writebacks += sum(ways.values())
    return CacheResult(miss, writebacks)
