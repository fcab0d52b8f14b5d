"""Sharded-store regression tests: layout and corruption.

The non-negotiable property under test: a damaged cache can cost *time*
(a miss and a re-run) but never *correctness* (a wrong or stale result
served as a hit).
"""

import pytest

from repro.exec import ResultCache, RunSpec, run_specs
from repro.exec.cache import SHARDS

FP = "a" * 64


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint=FP)


class TestShardedLayout:
    def test_entries_land_in_shard_dirs(self, cache):
        for i in range(16):
            cache.put(f"{i:02x}{'0' * 62}", i)
        gen = cache._generation_dir()
        flat = [p for p in gen.glob("*.pkl")]
        assert not flat  # nothing outside shards
        shard_dirs = sorted(p.name for p in gen.iterdir()
                            if p.is_dir())
        assert all(name.startswith("shard-") for name in shard_dirs)
        assert len(shard_dirs) > 1  # keys actually spread out

    def test_default_shard_count(self, cache):
        for i in range(2 * SHARDS):
            cache.put(f"{i:02x}{'0' * 62}", i)
        gen = cache._generation_dir()
        assert len([p for p in gen.iterdir() if p.is_dir()]) == SHARDS == 16

    def test_same_key_same_shard_across_instances(self, cache):
        key = "0123456789abcdef" * 4
        a = cache._entry_path(key)
        b = ResultCache(cache.root, fingerprint=FP)._entry_path(key)
        assert a == b


class TestCorruptShardEntry:
    def test_corrupt_entry_is_miss_and_rerun_never_wrong(self, cache):
        spec = RunSpec("selftest_point", {"token": "gold"})
        first = run_specs([spec], cache=cache)
        assert first.executed == 1
        # Flip bytes in the (sharded) entry.
        (entry,) = cache.root.rglob("*.pkl")
        entry.write_bytes(b"repro-cache-v1\nforged-digest\njunk")
        again = run_specs([spec], cache=cache)
        assert again.executed == 1 and again.cache_hits == 0
        assert again.results == first.results  # re-ran, same answer
        warm = run_specs([spec], cache=cache)  # repaired on the re-run
        assert warm.cache_hits == 1

    def test_truncated_shard_entry_deleted(self, cache):
        cache.put("ab" + "0" * 62, [1, 2])
        (entry,) = cache.root.rglob("*.pkl")
        entry.write_bytes(entry.read_bytes()[:10])
        hit, _ = cache.get("ab" + "0" * 62)
        assert not hit and not entry.exists()


class TestShardStats:
    def test_breakdown_covers_all_entries(self, cache):
        for i in range(12):
            cache.put(f"{i:02x}{'5' * 62}", i)
        stats = cache.stats()
        assert stats.entries == 12 and stats.shards == SHARDS
        assert sum(s.entries for s in stats.shard_breakdown) == 12
        assert sum(s.bytes for s in stats.shard_breakdown) == stats.bytes
        assert all(s.name.startswith("shard-")
                   for s in stats.shard_breakdown)

    def test_gc_reclaims_sharded_stale_generations(self, tmp_path):
        stale = ResultCache(tmp_path / "c", fingerprint="b" * 64)
        for i in range(4):
            stale.put(f"{i:02x}{'7' * 62}", i)
        live = ResultCache(tmp_path / "c", fingerprint=FP)
        live.put("aa" + "8" * 62, "keep")
        removed, freed = live.gc()
        assert removed == 4 and freed > 0
        assert live.stats().stale_entries == 0
        hit, _ = live.get("aa" + "8" * 62)
        assert hit
