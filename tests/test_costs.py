"""Unit tests for the latency cost model and prefetch accounting."""

import pytest

from repro.core.aggregating_cache import AggregatingClientCache
from repro.errors import SimulationError
from repro.obs import tracing
from repro.sim.costs import CostModel, price_replay


class TestCostModel:
    def test_demand_only_cost(self):
        model = CostModel(hit_time=1.0, request_latency=10.0, transfer_time=5.0)
        assert model.demand_only_cost(hits=2, misses=3) == pytest.approx(
            2 * 1.0 + 3 * 15.0
        )

    def test_grouped_cost(self):
        model = CostModel(hit_time=1.0, request_latency=10.0, transfer_time=5.0)
        # 4 hits, 2 group requests shipping 7 files total.
        assert model.grouped_cost(4, 2, 7) == pytest.approx(4 + 20 + 35)

    def test_group_fetch_cheaper_than_individual(self):
        model = CostModel()
        g = 5
        grouped = model.grouped_cost(0, 1, g)
        individual = model.demand_only_cost(0, g)
        assert grouped < individual

    def test_validate_rejects_negative(self):
        with pytest.raises(SimulationError):
            CostModel(hit_time=-1).validate()


class TestInstrumentedCache:
    """Prefetch outcomes as ``price_replay`` reads them: from the flight
    recorder's provenance for the client cache."""

    def test_useful_prefetch_counted(self):
        cache = AggregatingClientCache(capacity=10, group_size=3)
        with tracing.recording(capacity=1) as recorder:
            # Teach the chain, evict it, then resume it.
            for _ in range(2):
                for key in ["x", "y", "z"]:
                    cache.access(key)
            for i in range(12):
                cache.access(f"junk{i}")
            cache.access("x")  # prefetches y, z
            cache.access("y")  # useful prefetch
        assert recorder.component_summary("client")["group_used"] >= 1

    def test_wasted_prefetch_counted(self):
        cache = AggregatingClientCache(capacity=6, group_size=3)
        with tracing.recording(capacity=1) as recorder:
            # Teach the chain, then evict it entirely.
            for _ in range(2):
                for key in ["x", "y", "z"]:
                    cache.access(key)
            for i in range(8):
                cache.access(f"flood{i}")
            # Resuming at the head prefetches y and z...
            cache.access("x")
            assert recorder.component_summary("client")["group_installs"] >= 2
            # ...but the task is abandoned: the companions fall off the
            # tail unused and must be counted as waste.
            for i in range(8):
                cache.access(f"again{i}")
        outcome = recorder.component_summary("client")
        assert outcome["group_evicted_unused"] >= 2
        assert outcome["group_used"] == 0

    def test_conservation(self):
        cache = AggregatingClientCache(capacity=8, group_size=4)
        sequence = [f"f{i % 12}" for i in range(400)]
        with tracing.recording(capacity=1) as recorder:
            cache.replay(sequence)
        outcome = recorder.component_summary("client")
        assert (
            outcome["group_used"]
            + outcome["group_evicted_unused"]
            + outcome["group_resident_unused"]
            == outcome["group_installs"]
        )
        assert outcome["group_installs"] == cache.fetch_log.predicted_installed


class TestPriceReplay:
    def test_structure_and_speedup(self):
        files = [f"f{i}" for i in range(40)]
        sequence = files * 8
        comparison = price_replay(sequence, capacity=20, group_size=5)
        assert set(comparison) == {"lru", "g5"}
        assert comparison["g5"]["requests"] < comparison["lru"]["requests"]
        assert comparison.speedup("lru", "g5") > 1.0

    def test_group_size_one_prices_equal(self):
        sequence = [f"f{i % 9}" for i in range(200)]
        comparison = price_replay(sequence, capacity=5, group_size=1)
        assert comparison["g1"]["total_latency"] == pytest.approx(
            comparison["lru"]["total_latency"]
        )

    def test_rejects_empty_sequence(self):
        with pytest.raises(SimulationError):
            price_replay([], capacity=5)

    def test_custom_model_applied(self):
        sequence = ["a", "b"] * 50
        free_network = CostModel(hit_time=0.0, request_latency=0.0, transfer_time=0.0)
        comparison = price_replay(sequence, capacity=5, model=free_network)
        assert comparison["lru"]["total_latency"] == 0.0

    def test_no_decided_prefetch_is_zero_accuracy(self):
        # Two files that always fit: no companion is ever installed, so
        # none is used or wasted and the accuracy has nothing to divide.
        comparison = price_replay(["a", "b"] * 50, capacity=5)
        assert comparison["g5"]["prefetch_accuracy"] == 0.0
        assert comparison["g5"]["wasted_transfers"] == 0

    def test_prefetch_metrics_reported(self):
        files = [f"f{i}" for i in range(30)]
        comparison = price_replay(files * 6, capacity=15, group_size=5)
        assert 0.0 <= comparison["g5"]["prefetch_accuracy"] <= 1.0
        assert comparison["g5"]["wasted_transfers"] >= 0
