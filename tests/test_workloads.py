"""Unit tests for workload building blocks: zipf, activities, sessions."""

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.traces.events import EventKind
from repro.workloads.activities import (
    MarkovActivity,
    ScriptedActivity,
    make_file_names,
)
from repro.workloads.sessions import ClientSession, Interleaver, SessionConfig
from repro.workloads.zipf import ZipfSampler, geometric, zipf_choice


def _take(stream, count):
    """The next ``count`` accesses of a stream."""
    return list(islice(stream, count))


def _files(stream, count):
    """The file identifiers of the next ``count`` accesses of a stream."""
    return [file_id for file_id, _ in _take(stream, count)]


class TestZipfSampler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0)
        with pytest.raises(WorkloadError):
            ZipfSampler(5, exponent=-1)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf])
    def test_rejects_non_finite_exponent(self, exponent):
        # Either would make every draw rank 0.
        with pytest.raises(WorkloadError):
            ZipfSampler(5, exponent)

    @pytest.mark.parametrize("n", [2.5, math.nan])
    def test_rejects_non_integer_size(self, n):
        with pytest.raises(WorkloadError):
            ZipfSampler(n)

    def test_rejects_exponent_whose_weights_overflow(self, rng):
        # 2 ** 1024.0 is past the largest float; 2 ** 1023.0 is not.
        with pytest.raises(WorkloadError, match="too large"):
            ZipfSampler(2, 1024.0)
        assert ZipfSampler(2, 1023.0).sample(rng) in (0, 1)
        # One rank weighs 1 ** exponent, which never overflows.
        assert ZipfSampler(1, 2000.0).sample(rng) == 0

    def test_rank_zero_most_likely(self, rng):
        sampler = ZipfSampler(50, exponent=1.0)
        counts = [0] * 50
        for _ in range(5000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > counts[10] > 0

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(10, exponent=1.2)
        total = sum(sampler.probability(r) for r in range(10))
        assert total == pytest.approx(1.0)

    def test_probability_out_of_range(self):
        sampler = ZipfSampler(3)
        with pytest.raises(WorkloadError):
            sampler.probability(3)

    def test_exponent_zero_is_uniform(self, rng):
        sampler = ZipfSampler(4, exponent=0.0)
        for rank in range(4):
            assert sampler.probability(rank) == pytest.approx(0.25)

    def test_samples_in_range(self, rng):
        sampler = ZipfSampler(7)
        assert all(0 <= sampler.sample(rng) < 7 for _ in range(1000))


class TestZipfChoice:
    def test_empty_rejected(self, rng):
        with pytest.raises(WorkloadError):
            zipf_choice([], rng)

    def test_prefers_head(self, rng):
        picks = [zipf_choice(["a", "b", "c"], rng) for _ in range(2000)]
        assert picks.count("a") > picks.count("c")


class TestGeometric:
    def test_minimum_one(self, rng):
        assert all(geometric(rng, 1.0) == 1 for _ in range(10))

    def test_mean_approx(self, rng):
        draws = [geometric(rng, 5.0) for _ in range(5000)]
        assert sum(draws) / len(draws) == pytest.approx(5.0, rel=0.1)

    def test_rejects_sub_one(self, rng):
        with pytest.raises(WorkloadError):
            geometric(rng, 0.5)

    @pytest.mark.parametrize("mean", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_mean(self, rng, mean):
        # An infinite mean would never stop drawing; NaN would read as 1.
        with pytest.raises(WorkloadError):
            geometric(rng, mean)

    def test_mean_one_draws_nothing(self, rng):
        state = rng.getstate()
        assert geometric(rng, 1.0) == 1
        assert rng.getstate() == state


class TestMakeFileNames:
    def test_distinct(self):
        names = make_file_names("p", 100)
        assert len(set(names)) == 100
        assert all(name.startswith("p/") for name in names)

    def test_rejects_nonpositive(self):
        with pytest.raises(WorkloadError):
            make_file_names("p", 0)


class TestScriptedActivity:
    def test_cycles_deterministically(self, rng):
        activity = ScriptedActivity("t", ["a", "b", "c"])
        emitted = _files(activity.accesses(rng), 7)
        assert emitted == ["a", "b", "c", "a", "b", "c", "a"]

    def test_ephemeral_slots_fresh_each_cycle(self, rng):
        activity = ScriptedActivity("t", ["a", "b"], ephemeral_slots=[1])
        stream = activity.accesses(rng)
        first_cycle = _take(stream, 2)
        second_cycle = _take(stream, 2)
        assert first_cycle[1][0] != second_cycle[1][0]
        assert first_cycle[1][1] is EventKind.CREATE

    def test_write_slots(self, rng):
        activity = ScriptedActivity("t", ["a", "b"], write_slots=[0])
        access = next(activity.accesses(rng))
        assert access == ("a", EventKind.WRITE)

    def test_rejects_out_of_range_slots(self):
        with pytest.raises(WorkloadError, match="outside"):
            ScriptedActivity("t", ["a"], ephemeral_slots=[5])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(WorkloadError):
            ScriptedActivity("t", ["a", "b"], drift=1.5)

    def test_drift_changes_chain(self):
        rng = random.Random(0)
        activity = ScriptedActivity("t", [f"f{i}" for i in range(10)], drift=1.0)
        original = list(activity.files)
        emitted = _files(activity.accesses(rng), 40)  # four cycles, certain drift
        assert emitted != original * 4
        assert set(emitted) <= set(original)
        # The stream permutes its own copy: the activity is left as built.
        assert activity.files == original

    def test_loops_revisit_recent_files(self):
        rng = random.Random(0)
        activity = ScriptedActivity(
            "t", [f"f{i}" for i in range(20)], loop_probability=1.0
        )
        emitted = _files(activity.accesses(rng), 50)
        # With certain looping, files must repeat well before the cycle
        # would naturally return (20 steps).
        assert len(set(emitted[:10])) < 10

    def test_reset(self, rng):
        activity = ScriptedActivity("t", ["a", "b", "c"])
        stream = activity.accesses(rng)
        assert _files(stream, 2) == ["a", "b"]
        # A fresh stream is a reset; the first keeps its own position.
        assert _files(activity.accesses(rng), 1) == ["a"]
        assert _files(stream, 1) == ["c"]

    def test_streams_draw_only_as_accesses_are_taken(self):
        rng = random.Random(11)
        activity = ScriptedActivity(
            "t", [f"f{i}" for i in range(5)], drift=0.5, loop_probability=0.5
        )
        state = rng.getstate()
        stream = activity.accesses(rng)
        assert rng.getstate() == state
        next(stream)
        assert rng.getstate() != state

    def test_requires_files(self):
        with pytest.raises(WorkloadError):
            ScriptedActivity("t", [])


class TestMarkovActivity:
    def test_high_stability_follows_primary(self):
        rng = random.Random(1)
        activity = MarkovActivity("t", [f"f{i}" for i in range(5)], stability=1.0)
        emitted = _files(activity.accesses(rng), 15)
        # Fully stable: the walk is a fixed permutation cycle of 5.
        assert emitted[:5] == emitted[5:10] == emitted[10:15]

    def test_zero_stability_still_valid(self):
        rng = random.Random(2)
        activity = MarkovActivity("t", ["a", "b", "c"], stability=0.0)
        emitted = _files(activity.accesses(rng), 100)
        assert set(emitted) <= {"a", "b", "c"}
        # Zero stability re-draws until the walk moves.
        assert all(a != b for a, b in zip(emitted, emitted[1:]))

    def test_write_fraction(self):
        rng = random.Random(3)
        activity = MarkovActivity("t", ["a", "b"], write_fraction=1.0)
        assert next(activity.accesses(rng))[1] is EventKind.WRITE

    def test_rewire_changes_primary_map(self):
        rng = random.Random(4)
        files = [f"f{i}" for i in range(8)]
        activity = MarkovActivity(
            "t", files, stability=1.0, rewire_probability=1.0
        )
        before = dict(activity._primary)
        walk = _files(activity.accesses(rng), 20)
        # Fully stable: without rewiring every step would follow the map.
        assert any(before[a] != b for a, b in zip(walk, walk[1:]))
        assert set(walk) <= set(files)
        # The stream rewires its own copy: the activity is left as built.
        assert activity._primary == before

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            MarkovActivity("t", ["a"], stability=2.0)
        with pytest.raises(WorkloadError):
            MarkovActivity("t", ["a"], write_fraction=-0.1)
        with pytest.raises(WorkloadError):
            MarkovActivity("t", ["a"], rewire_probability=7.0)

    def test_single_file(self):
        rng = random.Random(5)
        activity = MarkovActivity("t", ["only"], stability=0.5)
        assert _files(activity.accesses(rng), 3) == ["only"] * 3

    def test_reset(self):
        rng = random.Random(6)
        activity = MarkovActivity("t", ["a", "b", "c"], stability=1.0)
        walk = _files(activity.accesses(rng), 2)
        # A fresh stream is a reset: it starts from the same file.
        assert _files(activity.accesses(rng), 2) == walk


class TestClientSession:
    def _session(self, **config_kwargs):
        activities = [
            ScriptedActivity("a0", ["x0", "x1", "x2"]),
            ScriptedActivity("a1", ["y0", "y1", "y2"]),
        ]
        return ClientSession("c0", activities, SessionConfig(**config_kwargs))

    def test_requires_activities(self):
        with pytest.raises(WorkloadError):
            ClientSession("c0", [])

    def test_rejects_an_activity_listed_twice(self):
        # Two streams of one activity would repeat its ephemeral files.
        activity = ScriptedActivity("a", ["x", "y"], ephemeral_slots=[1])
        with pytest.raises(WorkloadError, match="twice"):
            ClientSession("c0", [activity, activity])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("burst_mean", math.inf),
            ("burst_mean", math.nan),
            ("burst_mean", 0.5),
            ("activity_exponent", -1.0),
            ("activity_exponent", math.nan),
            ("shared_probability", math.nan),
            ("noise_probability", 1.5),
            ("preference_drift", -0.1),
        ],
    )
    def test_rejects_bad_config_when_built(self, field, value):
        with pytest.raises(WorkloadError):
            self._session(**{field: value})

    def test_fresh_stream_restarts(self):
        session = self._session(burst_mean=3.0, shared_probability=0.0)
        first = _take(session.accesses(random.Random(5)), 30)
        # The session keeps no stream state: a new stream replays it.
        assert _take(session.accesses(random.Random(5)), 30) == first

    def test_emits_activity_files(self, rng):
        session = self._session(burst_mean=10.0, shared_probability=0.0)
        emitted = _files(session.accesses(rng), 100)
        assert set(emitted) <= {"x0", "x1", "x2", "y0", "y1", "y2"}

    def test_shared_utility_on_switch(self, rng):
        session = self._session(
            burst_mean=1.0,
            shared_probability=1.0,
            shared_utilities=("bin/sh",),
        )
        emitted = _files(session.accesses(rng), 50)
        assert "bin/sh" in emitted

    def test_noise_injection(self, rng):
        session = self._session(
            burst_mean=100.0,
            shared_probability=0.0,
            noise_files=("noise/n0", "noise/n1"),
            noise_probability=1.0,
        )
        # After the initial switch, every access is noise.
        emitted = _files(session.accesses(rng), 20)
        assert all(f.startswith("noise/") for f in emitted)

    def test_preference_drift_changes_top_choice(self):
        rng = random.Random(9)
        activities = [
            ScriptedActivity(f"a{i}", [f"f{i}.0", f"f{i}.1"]) for i in range(6)
        ]
        config = SessionConfig(
            burst_mean=1.0,
            activity_exponent=3.0,  # heavily top-weighted
            shared_probability=0.0,
            preference_drift=1.0,
        )
        session = ClientSession("c0", activities, config)
        emitted = {file_id.split(".")[0] for file_id in _files(session.accesses(rng), 300)}
        # With certain drift, many different activities reach the top.
        assert len(emitted) >= 4


def _one_access_at_a_time(sessions, run_mean, events, rng):
    """The interleaving rule as a per-access scheduler, drawing through
    ``randrange`` and :func:`geometric`: the reference ``draw`` must match."""
    streams = [session.accesses(rng) for session in sessions]
    rows = []
    active, remaining = None, 0
    for _ in range(events):
        if active is None or remaining <= 0:
            active = rng.randrange(len(sessions))
            remaining = geometric(rng, run_mean)
        remaining -= 1
        file_id, kind = next(streams[active])
        rows.append((file_id, kind, sessions[active].client_id))
    return rows


class TestInterleaver:
    def test_requires_sessions(self):
        with pytest.raises(WorkloadError):
            Interleaver([])

    def test_rejects_a_shared_activity_or_session(self):
        activity = ScriptedActivity("a", ["x", "y"], ephemeral_slots=[1])
        first = ClientSession("c0", [activity])
        with pytest.raises(WorkloadError, match="share no activity"):
            Interleaver([first, ClientSession("c1", [activity])])
        with pytest.raises(WorkloadError, match="share no activity"):
            Interleaver([first, first])

    @pytest.mark.parametrize("run_mean", [math.inf, math.nan, 0.0, 0.99])
    def test_rejects_bad_run_mean_when_built(self, run_mean):
        sessions = [ClientSession("c", [ScriptedActivity("a", ["x", "y"])])]
        with pytest.raises(WorkloadError):
            Interleaver(sessions, run_mean=run_mean)

    @settings(max_examples=60, deadline=None)
    @given(
        # 1 and the powers of two are where the bounded draw's word
        # width matters: randrange(n) draws n.bit_length() bits.
        clients=st.sampled_from([1, 2, 3, 4, 5, 8, 12, 16, 17]),
        run_mean=st.sampled_from([1.0, 1.5, 2.5, 8.0]),
        events=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_draw_matches_a_one_access_scheduler(self, clients, run_mean, events, seed):
        sessions = [
            ClientSession(
                f"c{index}",
                [
                    ScriptedActivity(f"s{index}", [f"s{index}/{n}" for n in range(5)],
                                     loop_probability=0.3, drift=0.5),
                    MarkovActivity(f"m{index}", [f"m{index}/{n}" for n in range(4)],
                                   stability=0.5, rng=random.Random(index)),
                ],
                SessionConfig(burst_mean=3.0, noise_files=("n0", "n1"),
                              noise_probability=0.2, shared_utilities=("bin/sh",)),
            )
            for index in range(clients)
        ]
        drawn, reference = random.Random(seed), random.Random(seed)
        draws = Interleaver(sessions, run_mean=run_mean).draw(events, drawn)
        assert list(zip(*draws)) == _one_access_at_a_time(
            sessions, run_mean, events, reference
        )
        # Same draws, and none past the last event.
        assert drawn.getstate() == reference.getstate()

    def test_event_count_and_clients(self, rng):
        sessions = [
            ClientSession(
                f"c{i}", [ScriptedActivity(f"a{i}", [f"f{i}a", f"f{i}b"])]
            )
            for i in range(3)
        ]
        trace = Interleaver(sessions, run_mean=2.0).generate(100, rng)
        assert len(trace) == 100
        assert {e.client_id for e in trace} <= {"c0", "c1", "c2"}

    def test_zero_events(self, rng):
        sessions = [ClientSession("c", [ScriptedActivity("a", ["x", "y"])])]
        assert len(Interleaver(sessions).generate(0, rng)) == 0

    def test_negative_events_rejected(self, rng):
        sessions = [ClientSession("c", [ScriptedActivity("a", ["x", "y"])])]
        with pytest.raises(WorkloadError):
            Interleaver(sessions).generate(-1, rng)

    def test_sticky_runs(self):
        rng = random.Random(7)
        sessions = [
            ClientSession(f"c{i}", [ScriptedActivity(f"a{i}", [f"f{i}", f"g{i}"])])
            for i in range(2)
        ]
        trace = Interleaver(sessions, run_mean=20.0).generate(200, rng)
        clients = [e.client_id for e in trace]
        switches = sum(1 for a, b in zip(clients, clients[1:]) if a != b)
        # Mean run 20 over 200 events: on the order of 10 switches, far
        # fewer than per-event alternation.
        assert switches < 50
