"""Cache keys (and their invalidation) plus the on-disk result store."""

import json
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

import repro.runner.cache as cache_module
from repro.runner import (
    ResultCache,
    cache_key,
    code_version,
    experiment_cache_key,
)
from repro.utils import InvalidParameterError

BASE = dict(
    experiment_id="E5",
    params={"fast": True},
    seed=7,
    backend="count",
    version="abc123",
)

#: ``experiment_cache_key("E1", profile, 7, None)`` under the code version
#: ``"pinned"``, captured when the boolean profile spelling still existed
#: (``True``/``False`` produced these same keys).
PINNED_PROFILE_KEYS = {
    "fast": "a5b2e6a7d8617d141d116916dab911c803e7b98ecf1a70a991aa225103d8c2b8",
    "full": "b360dfc9088befa32691dee719e03e14f5e6404686fe999e66be71cba7131c6b",
}


def key_with(**overrides) -> str:
    coordinates = {**BASE, **overrides}
    return cache_key(
        coordinates["experiment_id"],
        coordinates["params"],
        coordinates["seed"],
        coordinates["backend"],
        coordinates["version"],
    )


class TestCacheKeyInvalidation:
    def test_stable_for_identical_coordinates(self):
        assert key_with() == key_with()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("experiment_id", "E6"),
            ("params", {"fast": False}),
            ("seed", 8),
            ("backend", "agent"),
            ("backend", None),
            ("version", "def456"),
        ],
    )
    def test_any_coordinate_change_invalidates(self, field, value):
        assert key_with(**{field: value}) != key_with()

    def test_experiment_id_case_insensitive(self):
        assert key_with(experiment_id="e5") == key_with(experiment_id="E5")

    def test_params_order_irrelevant(self):
        left = cache_key("E1", {"a": 1, "b": 2}, 0, None, "v")
        right = cache_key("E1", {"b": 2, "a": 1}, 0, None, "v")
        assert left == right

    def test_defaults_to_live_code_version(self):
        live = cache_key("E1", {}, 0, None)
        pinned = cache_key("E1", {}, 0, None, code_version())
        assert live == pinned
        assert live != cache_key("E1", {}, 0, None, "not-the-live-version")

    def test_rejects_generator_seeds(self):
        import numpy as np

        with pytest.raises(InvalidParameterError, match="seed"):
            cache_key("E1", {}, np.random.default_rng(0), None, "v")

    def test_rejects_unserializable_params(self):
        with pytest.raises(InvalidParameterError, match="JSON"):
            cache_key("E1", {"fn": object()}, 0, None, "v")


class TestExperimentCacheKey:
    def test_backend_ignored_by_backendless_runners(self):
        # E1 is exact computation: its runner has no backend parameter,
        # so the knob must not split the cache into duplicate entries.
        with_backend = experiment_cache_key("E1", "fast", 7, "count")
        without = experiment_cache_key("E1", "fast", 7, None)
        assert with_backend == without

    def test_backend_distinguishes_backend_aware_runners(self):
        # E4 simulates populations and accepts backend=.
        count_key = experiment_cache_key("E4", "fast", 7, "count")
        agent_key = experiment_cache_key("E4", "fast", 7, "agent")
        default_key = experiment_cache_key("E4", "fast", 7, None)
        assert len({count_key, agent_key, default_key}) == 3

    def test_seed_and_fast_still_split(self):
        base = experiment_cache_key("E1", "fast", 7, None)
        assert experiment_cache_key("E1", "full", 7, None) != base
        assert experiment_cache_key("E1", "fast", 8, None) != base

    @pytest.mark.parametrize("profile", sorted(PINNED_PROFILE_KEYS))
    def test_profile_keys_pinned(self, monkeypatch, profile):
        # Under a fixed code version the key of each built-in profile is
        # pinned, so existing cache entries stay addressable by name.
        monkeypatch.setattr(cache_module, "_CODE_VERSION", "pinned")
        key = experiment_cache_key("E1", profile, 7, None)
        assert key == PINNED_PROFILE_KEYS[profile]

    def test_equivalent_param_spellings_share_a_key(self):
        # n=1e4 (string), n=10000.0 (float) and n=10000 (int) all resolve
        # to the same canonical payload -> one cache entry.
        base = experiment_cache_key("E4", "fast", 7, None, {"n": 10_000})
        assert experiment_cache_key("E4", "fast", 7, None, {"n": "1e4"}) == base
        assert experiment_cache_key("E4", "fast", 7, None, {"n": 10_000.0}) == base

    def test_default_equal_override_shares_the_bare_key(self):
        bare = experiment_cache_key("E1", "fast", 7, None)
        spelled = experiment_cache_key("E1", "fast", 7, None, {"k": 6})
        assert bare == spelled  # k=6 is E1's declared default

    def test_changed_param_splits_the_key(self):
        bare = experiment_cache_key("E1", "fast", 7, None)
        assert experiment_cache_key("E1", "fast", 7, None, {"k": 4}) != bare

    def test_unknown_param_rejected_with_schema(self):
        with pytest.raises(InvalidParameterError, match="valid parameters"):
            experiment_cache_key("E1", "fast", 7, None, {"zz": 1})


class TestCodeVersion:
    def test_stable_within_process(self):
        assert code_version() == code_version()

    def test_short_hex(self):
        version = code_version()
        assert len(version) == 16
        int(version, 16)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = key_with()
        assert cache.get(key) is None
        cache.put(key, {"report": {"x": 1}})
        assert cache.get(key) == {"report": {"x": 1}}
        assert cache.hits == 1
        assert cache.misses == 1

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        for index in range(3):
            cache.put(key_with(seed=index), {"seed": index})
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = key_with()
        cache.put(key, {"ok": True})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_write_is_atomic(self, tmp_path):
        # No temp files are left behind and the entry parses as JSON.
        cache = ResultCache(tmp_path)
        key = key_with()
        cache.put(key, {"payload": list(range(100))})
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
        stored = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
        assert stored["payload"][:3] == [0, 1, 2]

    def test_put_rejects_non_strict_json(self, tmp_path):
        # Raw NaN payloads must be encoded portably upstream; the store
        # refuses to write non-strict JSON rather than emit NaN literals.
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put(key_with(), {"x": float("nan")})


def hammer_one_key(args) -> int:
    """Write/read one key 25 times (module-level for the spawn pool).

    Every read must see a complete entry: atomic ``os.replace`` writes
    mean concurrent writers can race on *which* payload wins, never on
    whether the file parses.
    """
    root, key, writer = args
    cache = ResultCache(root)
    for iteration in range(25):
        cache.put(
            key, {"writer": writer, "iteration": iteration, "pad": "x" * 256}
        )
        entry = cache.get(key)
        assert entry is not None, "reader saw a torn entry"
        assert set(entry) == {"writer", "iteration", "pad"}
    return writer


class TestConcurrentWriters:
    def test_racing_processes_never_tear_an_entry(self, tmp_path):
        # Four spawn-pool processes hammer the same key concurrently —
        # the multi-sweep-sharing-one-cache (and fabric-coordinator)
        # scenario.  The store must stay readable throughout and end in
        # a complete final state with no temp-file debris.
        key = key_with()
        args = [(str(tmp_path), key, writer) for writer in range(4)]
        with ProcessPoolExecutor(4, mp_context=get_context("spawn")) as pool:
            writers = list(pool.map(hammer_one_key, args))
        assert sorted(writers) == [0, 1, 2, 3]
        assert list(tmp_path.rglob("*.tmp")) == []
        final = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
        assert set(final) == {"writer", "iteration", "pad"}
        # The chronologically last replace is some writer's final write.
        assert final["iteration"] == 24


class TestPrune:
    def seed_entries(self, tmp_path, ages):
        """One entry per age (seconds before 'now'); returns the cache."""
        import os

        cache = ResultCache(tmp_path)
        now = 1_000_000_000.0
        for index, age in enumerate(ages):
            key = key_with(seed=index)
            cache.put(key, {"payload": "x" * 100, "index": index})
            path = tmp_path / key[:2] / f"{key}.json"
            os.utime(path, (now - age, now - age))
        return cache, now

    def test_max_age_evicts_old_entries(self, tmp_path):
        cache, now = self.seed_entries(tmp_path, [10, 5000, 10_000])
        stats = cache.prune(max_age=3600, now=now)
        assert stats["removed"] == 2
        assert stats["kept"] == 1
        assert len(cache) == 1

    def test_max_size_evicts_oldest_first(self, tmp_path):
        cache, now = self.seed_entries(tmp_path, [30, 20, 10])
        sizes = [size for _, _, size in cache._entries()]
        stats = cache.prune(max_size=sizes[0] * 2, now=now)
        assert stats["removed"] == 1
        assert len(cache) == 2
        # The newest two survive: their payload indices are 1 and 2.
        kept = []
        for path in tmp_path.glob("*/*.json"):
            kept.append(json.loads(path.read_text())["index"])
        assert sorted(kept) == [1, 2]

    def test_combined_policies(self, tmp_path):
        cache, now = self.seed_entries(tmp_path, [10, 20, 99_999])
        stats = cache.prune(max_age=3600, max_size=0, now=now)
        assert stats["removed"] == 3
        assert stats["bytes"] == 0

    def test_prune_without_policy_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="max_age"):
            ResultCache(tmp_path).prune()

    def test_negative_knobs_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            ResultCache(tmp_path).prune(max_age=-1)
        with pytest.raises(InvalidParameterError):
            ResultCache(tmp_path).prune(max_size=-1)

    def test_stats_reports_entries_and_bytes(self, tmp_path):
        cache, _ = self.seed_entries(tmp_path, [10, 20])
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
