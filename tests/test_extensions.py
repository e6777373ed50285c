"""Unit tests for the extension experiments (placement/hoarding/cooperation)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import run_cooperation, run_hoarding, run_placement

EVENTS = 6000


class TestRunPlacement:
    @pytest.fixture(scope="class")
    def figure(self):
        return run_placement(workload="server", events=EVENTS, group_sizes=(2, 8))

    def test_structure(self, figure):
        assert set(figure.labels()) == {
            "frequency",
            "grouped",
            "name",
            "random",
            "replicated",
        }
        assert figure.x_values() == [2.0, 8.0]

    def test_group_agnostic_strategies_flat(self, figure):
        for label in ("random", "name", "frequency"):
            ys = figure.get_series(label).ys()
            assert ys[0] == ys[1], label

    def test_grouped_improves_with_group_size(self, figure):
        grouped = figure.get_series("grouped")
        assert grouped.y_at(8) < grouped.y_at(2)

    def test_grouped_beats_random(self, figure):
        assert (
            figure.get_series("grouped").y_at(8)
            < figure.get_series("random").y_at(8)
        )

    def test_rejects_empty_axis(self):
        with pytest.raises(ExperimentError):
            run_placement(events=EVENTS, group_sizes=())


class TestRunHoarding:
    @pytest.fixture(scope="class")
    def figure(self):
        return run_hoarding(
            workload="server",
            events=EVENTS,
            budgets=(60, 120, 240),
            offline_events=800,
        )

    def test_structure(self, figure):
        assert set(figure.labels()) == {"recency", "frequency", "group-closure"}
        assert len(figure.x_values()) == 3

    def test_miss_rates_bounded(self, figure):
        for series in figure.series:
            assert all(0.0 <= y <= 1.0 for y in series.ys())

    def test_bigger_budget_not_worse(self, figure):
        for label in ("recency", "frequency"):
            ys = figure.get_series(label).ys()
            assert ys[-1] <= ys[0] + 1e-9, label

    def test_rejects_bad_offline_window(self):
        with pytest.raises(ExperimentError):
            run_hoarding(events=500, offline_events=500)

    def test_rejects_empty_budgets(self):
        with pytest.raises(ExperimentError):
            run_hoarding(events=EVENTS, budgets=())


class TestRunCooperation:
    @pytest.fixture(scope="class")
    def figure(self):
        return run_cooperation(
            workload="server",
            events=EVENTS,
            filter_capacities=(50, 300),
            server_capacity=200,
        )

    def test_structure(self, figure):
        assert figure.labels() == ["cooperative", "filtered"]

    def test_rates_are_percentages(self, figure):
        for series in figure.series:
            assert all(0.0 <= y <= 100.0 for y in series.ys())

    def test_cooperation_not_harmful(self, figure):
        # Extra information can only help group construction (within
        # simulation jitter).
        for x in (50.0, 300.0):
            cooperative = figure.get_series("cooperative").y_at(x)
            filtered = figure.get_series("filtered").y_at(x)
            assert cooperative >= filtered - 3.0

    def test_rejects_empty_filters(self):
        with pytest.raises(ExperimentError):
            run_cooperation(events=EVENTS, filter_capacities=())


class TestRunAdaptation:
    @pytest.fixture(scope="class")
    def figure(self):
        from repro.experiments import run_adaptation

        return run_adaptation(events=8000, interval=1000)

    def test_structure(self, figure):
        assert figure.labels() == ["lru", "g5"]
        assert len(figure.get_series("lru")) == 8

    def test_hit_rates_bounded(self, figure):
        for series in figure.series:
            assert all(0.0 <= y <= 1.0 for y in series.ys())

    def test_grouping_recovers_at_least_as_well(self, figure):
        # Post-shift steady state: the last interval's hit rate.
        lru_final = figure.get_series("lru").ys()[-1]
        g5_final = figure.get_series("g5").ys()[-1]
        assert g5_final >= lru_final - 0.02

    def test_rejects_bad_interval(self):
        from repro.experiments import run_adaptation
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_adaptation(events=4000, interval=0)

    @pytest.mark.parametrize("workload,interval", [("server", 1000), ("users", 700)])
    def test_series_matches_per_event_reference(self, workload, interval):
        # Each interval's hit rate recounted from per-event access()
        # calls, a partial last interval included.
        from repro.core.aggregating_cache import AggregatingClientCache
        from repro.experiments import run_adaptation
        from repro.experiments.common import workload_sequence

        figure = run_adaptation(workload=workload, events=EVENTS, interval=interval)
        combined = list(workload_sequence(workload, EVENTS // 2, None)) + list(
            workload_sequence(workload, EVENTS // 2, 777)
        )
        for label, group_size in (("lru", 1), ("g5", 5)):
            cache = AggregatingClientCache(capacity=300, group_size=group_size)
            expected = []
            hits = accesses = 0
            for position, file_id in enumerate(combined, 1):
                hits += cache.access(file_id)
                accesses += 1
                if accesses == interval or position == len(combined):
                    expected.append((position, hits / accesses))
                    hits = accesses = 0
            assert figure.get_series(label).points == expected


class TestRunServerCapacity:
    @pytest.fixture(scope="class")
    def figure(self):
        from repro.experiments import run_server_capacity

        return run_server_capacity(
            events=8000, server_capacities=(100, 300, 600), filter_capacity=300
        )

    def test_structure(self, figure):
        assert figure.labels() == ["g5", "lru", "lfu"]
        assert figure.x_values() == [100.0, 300.0, 600.0]

    def test_grouping_dominates_when_server_small(self, figure):
        # The paper's motivating regime: server <= client capacity.
        for x in (100.0, 300.0):
            assert figure.get_series("g5").y_at(x) > figure.get_series(
                "lru"
            ).y_at(x)

    def test_hit_rates_grow_with_server_capacity(self, figure):
        for label in ("g5", "lru"):
            ys = figure.get_series(label).ys()
            assert ys[-1] >= ys[0]

    def test_rejects_empty(self):
        from repro.experiments import run_server_capacity
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_server_capacity(events=4000, server_capacities=())


class TestRunMetadataBudget:
    @pytest.fixture(scope="class")
    def figure(self):
        from repro.experiments import run_metadata_budget

        return run_metadata_budget(
            workload="server", events=6000, successor_capacities=(1, 4, 8)
        )

    def test_structure(self, figure):
        assert figure.labels() == ["demand-fetches", "metadata-entries"]
        assert figure.x_values() == [1.0, 4.0, 8.0]

    def test_fetches_flat_within_noise(self, figure):
        # The sharpened minimal-metadata finding: group construction is
        # head-of-list driven, so fetch counts barely move with depth.
        fetches = figure.get_series("demand-fetches").ys()
        assert max(fetches) <= min(fetches) * 1.02

    def test_metadata_grows_with_capacity(self, figure):
        entries = figure.get_series("metadata-entries").ys()
        assert entries == sorted(entries)
        assert entries[-1] > entries[0]

    def test_rejects_empty(self):
        from repro.experiments import run_metadata_budget
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            run_metadata_budget(events=4000, successor_capacities=())
