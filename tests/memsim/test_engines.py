"""Deterministic engine-equivalence and engine-selection tests.

The hypothesis suite (tests/properties/test_engine_props.py) fuzzes
small streams; these tests pin specific regressions: engine selection
plumbing, sparse address densification, the bitmask-resolution path with
real ambiguous windows, and the scalar fallback guard.
"""

import numpy as np
import pytest

from repro.lang import SimulationError
from repro.memsim import ENGINES, default_engine, fa_miss_counts
from repro.memsim.cache import CacheConfig, simulate_cache, simulate_cache_writeback
from repro.memsim import fastsim


def _assert_engines_agree(config, addresses, writes=None):
    ref = simulate_cache_writeback(config, addresses, writes, engine="reference")
    fast = simulate_cache_writeback(config, addresses, writes, engine="fast")
    assert np.array_equal(ref.miss, fast.miss)
    assert ref.writebacks == fast.writebacks
    return ref


class TestEngineSelection:
    def test_default_engine_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert default_engine() == "fast"

    def test_env_var_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert default_engine() == "reference"

    def test_env_var_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(SimulationError, match="REPRO_ENGINE"):
            default_engine()

    def test_explicit_engine_rejects_unknown(self):
        cfg = CacheConfig("c", 64, 8, 0)
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate_cache(cfg, np.array([0, 8]), engine="turbo")

    def test_engines_tuple(self):
        assert ENGINES == ("fast", "reference")

    def test_env_var_reaches_the_harness(self, monkeypatch):
        # one parser of REPRO_ENGINE serves the run() front door too
        from repro.harness import RunRequest, run

        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(SimulationError, match="REPRO_ENGINE"):
            run(RunRequest(program="adi", params={"N": 16}, steps=1))

    def test_run_request_rejects_unknown_engine(self):
        from repro.harness import RunRequest, run

        with pytest.raises(SimulationError, match="unknown engine"):
            run(
                RunRequest(
                    program="adi", params={"N": 16}, steps=1, engine="interp"
                )
            )


class TestFastPaths:
    def test_empty_stream(self):
        cfg = CacheConfig("c", 64, 8, 2)
        res = simulate_cache_writeback(
            cfg, np.empty(0, dtype=np.int64), None, engine="fast"
        )
        assert len(res.miss) == 0 and res.writebacks == 0

    def test_sparse_addresses_densify(self):
        # line numbers scattered across 2**40: forces np.unique densification
        rng = np.random.default_rng(11)
        bases = rng.integers(0, 2**40, size=8)
        addrs = (rng.choice(bases, size=4000) + rng.integers(0, 32, size=4000)) * 64
        writes = rng.random(4000) < 0.3
        for cap in (2, 16, 64):
            _assert_engines_agree(CacheConfig("fa", cap * 64, 64, 0), addrs, writes)

    def test_phase_structured_stream_all_geometries(self):
        # phase changes create long-gap reuses whose stack distance must be
        # resolved exactly (ambiguous windows in the bitmask path)
        rng = np.random.default_rng(5)
        phases = [
            rng.integers(lo, lo + width, size=3000)
            for lo, width in ((0, 40), (300, 25), (10, 200), (150, 60))
        ]
        addrs = np.concatenate(phases) * 32
        writes = rng.random(len(addrs)) < 0.25
        for cfg in (
            CacheConfig("fa", 16 * 32, 32, 0),
            CacheConfig("fa", 128 * 32, 32, 0),
            CacheConfig("dm", 16 * 32, 32, 1),
            CacheConfig("2w", 64 * 32, 32, 2),
            CacheConfig("4w", 64 * 32, 32, 4),
        ):
            _assert_engines_agree(cfg, addrs, writes)

    def test_fa_table_guard_falls_back_to_scalar(self, monkeypatch):
        # shrink the table budget so the bitmask path refuses and the
        # scalar fallback answers — results must be unchanged
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 500, size=2000) * 16
        cfg = CacheConfig("fa", 32 * 16, 16, 0)
        want = simulate_cache(cfg, addrs, engine="fast")
        monkeypatch.setattr(fastsim, "_FA_TABLE_BYTES", 0)
        got = simulate_cache(cfg, addrs, engine="fast")
        assert np.array_equal(want, got)

    def test_all_loads_reports_zero_writebacks(self):
        cfg = CacheConfig("2w", 8 * 16, 16, 2)
        addrs = np.arange(100) % 40 * 16
        res = simulate_cache_writeback(cfg, addrs, None, engine="fast")
        assert res.writebacks == 0


class TestFaMissCounts:
    def test_matches_per_capacity_simulation(self):
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 300, size=5000)
        capacities = (1, 4, 16, 64, 256, 1024)
        counts = fa_miss_counts(keys, capacities)
        assert set(counts) == set(capacities)
        for cap in capacities:
            cfg = CacheConfig("fa", cap, 1, 0)
            miss = simulate_cache(cfg, keys, engine="fast")
            assert counts[cap] == int(miss.sum()), cap

    def test_monotone_in_capacity(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 100, size=2000)
        counts = fa_miss_counts(keys, (1, 2, 4, 8, 16))
        values = [counts[c] for c in (1, 2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)
