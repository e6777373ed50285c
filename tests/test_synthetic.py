"""Unit tests for the synthetic paper workloads (structure, not shape).

Shape/calibration assertions live in test_workload_calibration.py; this
module tests the generator machinery itself: determinism, validation,
event accounting, and the spec registry.
"""

import hashlib
import importlib.util
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.traces.events import EventKind
from repro.workloads.markov import (
    MarkovTraceGenerator,
    cycle_with_noise,
    validate_transitions,
)
from repro.workloads.sessions import Draws
from repro.workloads.synthetic import (
    GENERATOR_VERSION,
    SERVER_SPEC,
    USERS_SPEC,
    WORKLOADS,
    WORKSTATION_SPEC,
    WRITE_SPEC,
    WorkloadSpec,
    _expand_repeats,
    build_workload,
    make_workload,
)
from repro.workloads.zipf import geometric

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestWorkloadSpec:
    def test_presets_validate(self):
        for spec in (SERVER_SPEC, WRITE_SPEC):
            spec.validate()

    def test_rejects_bad_clients(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", clients=0).validate()

    def test_rejects_bad_fractions(self):
        with pytest.raises(WorkloadError, match="noise_probability"):
            WorkloadSpec(name="x", noise_probability=2.0).validate()

    def test_rejects_short_chain(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", chain_length=1).validate()

    def test_rejects_bad_repeat_mean(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="x", repeat_mean=0.5).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            # An infinite mean would never end a geometric draw; NaN would read as 1.
            ("burst_mean", math.inf),
            ("burst_mean", 0.5),
            ("run_mean", math.nan),
            ("run_mean", 0.0),
            ("repeat_mean", math.nan),
            ("repeat_mean", math.inf),
            ("activity_exponent", -1.0),
            ("activity_exponent", math.nan),
            ("activity_exponent", math.inf),
            # 6 ** 2000.0 overflows a float.
            ("activity_exponent", 2000.0),
            ("noise_files", -3),
            ("library_files", -1),
            ("markov_stability", 1.5),
            ("markov_stability", math.nan),
            ("repeat_probability", math.nan),
            ("clients", 2.5),
            ("chain_length", 40.0),
        ],
    )
    def test_rejects_bad_field_before_any_draw(self, field, value):
        spec = replace(USERS_SPEC, **{field: value})
        with pytest.raises(WorkloadError, match=field):
            spec.validate()
        with pytest.raises(WorkloadError, match=field):
            build_workload(spec, 10, seed=1)


_PROBABILITIES = (
    "scripted_fraction",
    "markov_stability",
    "noise_probability",
    "shared_probability",
    "ephemeral_fraction",
    "write_slot_fraction",
    "markov_write_fraction",
    "scripted_drift",
    "loop_probability",
    "markov_rewire",
    "library_fraction",
    "repeat_probability",
    "preference_drift",
)
_MEANS = ("burst_mean", "run_mean", "repeat_mean")

#: A small, valid spec: every field drawn from its own range.
_VALID_RANGES = {
    "clients": st.integers(1, 4),
    "activities_per_client": st.integers(1, 4),
    "chain_length": st.integers(2, 6),
    "noise_files": st.integers(0, 5),
    "library_files": st.integers(0, 5),
    "activity_exponent": st.floats(0.0, 3.0),
    **{field: st.floats(0.0, 1.0) for field in _PROBABILITIES},
    **{field: st.floats(1.0, 20.0) for field in _MEANS},
}
_FIELDS = sorted(_VALID_RANGES)

#: Values a careless caller might put in any field: NaN, both
#: infinities, zero, negatives, fractions, small in-range numbers, and
#: an exponent whose Zipf weights overflow a float past one activity.
_WILD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, 0.5, 1, 1.0, 1.5, 2, 7.0, 2000.0]
)


class TestSpecFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        fields=st.fixed_dictionaries(_VALID_RANGES),
        wild=st.dictionaries(st.sampled_from(_FIELDS), _WILD_VALUES, max_size=3),
        events=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_spec_fails_validation_or_builds_exactly(self, fields, wild, events, seed):
        spec = WorkloadSpec(name="fuzz", **{**fields, **wild})
        try:
            spec.validate()
        except WorkloadError:
            with pytest.raises(WorkloadError):
                build_workload(spec, events, seed)
            return
        assert len(build_workload(spec, events, seed)) == events


class TestBuildWorkload:
    def test_exact_event_count(self):
        for name in WORKLOADS:
            trace = make_workload(name, 2000)
            assert len(trace) == 2000, name

    def test_deterministic_for_seed(self):
        a = make_workload("server", 3000, seed=7).file_ids()
        b = make_workload("server", 3000, seed=7).file_ids()
        assert a == b

    def test_different_seeds_differ(self):
        a = make_workload("server", 3000, seed=1).file_ids()
        b = make_workload("server", 3000, seed=2).file_ids()
        assert a != b

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError, match="server"):
            make_workload("mainframe", 100)

    def test_zero_events(self):
        assert len(make_workload("users", 0)) == 0

    def test_negative_events_rejected(self):
        with pytest.raises(WorkloadError):
            build_workload(SERVER_SPEC, -5, seed=1)

    def test_client_attribution(self):
        trace = make_workload("users", 3000)
        clients = {event.client_id for event in trace}
        assert len(clients) == 12

    def test_write_workload_has_mutations(self):
        trace = make_workload("write", 5000)
        mutations = sum(1 for event in trace if event.is_mutation)
        assert mutations > 0.15 * len(trace)

    def test_server_workload_mostly_opens(self):
        trace = make_workload("server", 5000)
        opens = sum(1 for event in trace if event.kind is EventKind.OPEN)
        assert opens > 0.85 * len(trace)

    def test_repeats_present(self):
        trace = make_workload("server", 5000)
        ids = trace.file_ids()
        immediate_repeats = sum(1 for a, b in zip(ids, ids[1:]) if a == b)
        assert immediate_repeats > 0.02 * len(ids)

    def test_shared_utilities_appear(self):
        trace = make_workload("workstation", 10000)
        files = set(trace.file_ids())
        assert "bin/sh" in files or "bin/make" in files

    def test_library_files_span_activities(self):
        trace = make_workload("users", 20000)
        # Some lib file must be accessed as part of multiple activities;
        # proxy: lib files exist and are hot.
        lib_accesses = [f for f in trace.file_ids() if "/lib/" in f]
        assert len(lib_accesses) > 100


#: SHA-256 of generated traces, keyed by ``GENERATOR_VERSION`` and then
#: by ``(workload, seed)`` at 3,000 events (``None`` = default seed).
#: Cached ``.ctrace`` artifacts are named by the version alone, so these
#: digests are what makes the version tag honest.
GENERATOR_DIGESTS = {
    1: {
        ("server", None): "8abc309e4ada782db9417139381d49277a2c301d5303901453f7a06a57b77058",
        ("server", 7): "66e3d4a69c11e7afdf1e90dd1c8edbd416a6cc88a8f6b5f66420fcae946b2b7a",
        ("users", None): "a88033e2a6135e45af1416a8f0f9805fd0f69b43ab6f8b5a2ef336d6cec6a3aa",
        ("users", 7): "b072745fca9e92f28caef685f46e8a7b04ffbd0c96668058ce079c4789ca1dd2",
        ("workstation", None): "22148fa012bd87721ce477127c0c5ba14ec0c296c9b014bd4143e976e40bcc15",
        ("workstation", 7): "1b46143e859d8b452abfa9d2b1f871338a688e076a73f484a9e683c4fa608331",
        ("write", None): "733620c782d9b845677992d7ca7afaf8863a8eaf443e59270785111b0975fdc4",
        ("write", 7): "7bf2943c558b3b7946b61eb8910aa10ab5cb0e484227104f8f0c152fd2cf93f7",
    },
}


def _trace_digest(trace) -> str:
    """SHA-256 over the trace name, its length and every field of every event."""
    digest = hashlib.sha256()
    digest.update(repr((trace.name, len(trace))).encode("utf-8"))
    for event in trace:
        fields = (
            event.sequence,
            event.file_id,
            event.kind.value,
            event.client_id,
            event.user_id,
            event.process_id,
        )
        digest.update(repr(fields).encode("utf-8"))
    return digest.hexdigest()


class TestGeneratorDigests:
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_output_matches_recorded_digest(self, name, seed):
        recorded = GENERATOR_DIGESTS.get(GENERATOR_VERSION)
        assert recorded is not None, (
            f"no digests recorded for GENERATOR_VERSION {GENERATOR_VERSION}; "
            "record the new output's digests under the new version"
        )
        assert _trace_digest(make_workload(name, 3000, seed)) == recorded[(name, seed)], (
            f"generated {name!r} (seed {seed}) no longer matches the digest "
            f"recorded for GENERATOR_VERSION {GENERATOR_VERSION}: bump "
            "GENERATOR_VERSION in repro.workloads.synthetic (so cached "
            "artifacts are regenerated) and record the new digests under it"
        )


def _expand_one_access_at_a_time(rows, probability, mean, rng):
    """Repeat expansion as a per-access loop drawing through :func:`geometric`."""
    if not probability:
        return rows
    limit = len(rows)
    expanded = []
    for row in rows:
        if len(expanded) >= limit:
            break
        expanded.append(row)
        if rng.random() < probability:
            extra = geometric(rng, mean)
            repeat = (row[0], EventKind.OPEN, row[2])
            expanded.extend([repeat] * min(extra, limit - len(expanded)))
    return expanded


class TestExpandRepeats:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([EventKind.OPEN, EventKind.WRITE, EventKind.CREATE]),
                st.sampled_from(["c0", "c1"]),
            ),
            max_size=200,
        ),
        probability=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        mean=st.sampled_from([1.0, 1.5, 4.0]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_a_per_access_loop(self, rows, probability, mean, seed):
        spec = WorkloadSpec(name="x", repeat_probability=probability, repeat_mean=mean)
        columns = Draws(*map(list, zip(*rows))) if rows else Draws([], [], [])
        expanded, reference = random.Random(seed), random.Random(seed)
        got = _expand_repeats(columns, spec, expanded)
        assert list(zip(*got)) == _expand_one_access_at_a_time(
            rows, probability, mean, reference
        )
        assert expanded.getstate() == reference.getstate()


#: Specs that reach generator branches the presets do not.  Means of 1
#: draw no variate; with 16 clients ``randrange`` draws 5-bit words
#: (``n.bit_length()``), where ``(n - 1).bit_length()`` would draw 4.
CORNER_SPECS = {
    "means-one": replace(USERS_SPEC, run_mean=1.0, burst_mean=1.0, repeat_mean=1.0),
    "server-means-one": replace(SERVER_SPEC, run_mean=1.0, burst_mean=1.0, repeat_mean=1.0),
    "quiet": replace(WORKSTATION_SPEC, noise_files=0, library_fraction=0.0),
    "all-markov": replace(WRITE_SPEC, scripted_fraction=0.0),
    "all-scripted": replace(WRITE_SPEC, scripted_fraction=1.0),
    "unstable-pairs": replace(USERS_SPEC, markov_stability=0.0, chain_length=2),
    "drifting-preference": replace(WORKSTATION_SPEC, preference_drift=1.0),
    "sixteen-clients": replace(USERS_SPEC, clients=16),
    "certain-drift": replace(
        WRITE_SPEC, scripted_drift=1.0, markov_rewire=1.0, loop_probability=0.5
    ),
}

#: Digests of ``CORNER_SPECS`` (3,000 events, seeds 1 and 7) and of the
#: trace ``examples/custom_workload.py`` composes by hand from
#: activities, sessions and an interleaver (25,000 events), keyed by
#: ``GENERATOR_VERSION`` as ``GENERATOR_DIGESTS`` is.  They were
#: recorded from the per-access generator, before it became streams.
CORNER_DIGESTS = {
    1: {
        ("all-markov", 1): "b5fbea127c5d0bde10325c5e3e09b48d87fff3e6c22d576ea457c374ac79145c",
        ("all-markov", 7): "d1bf7a09db38a65f7df2647d442a0fcc6e4c7c07b0e278904e2836b957c3ae0d",
        ("all-scripted", 1): "a62b2148b7729407f539aefbd67237e0869e3013507463899604bb090a5249ae",
        ("all-scripted", 7): "682767f51bee39dc7dba219fc97e38edf06d700fae77a4be69a84da7d26139fe",
        ("certain-drift", 1): "1908bfffa2c130cda3a9dd8a4c158dd224e3532c61346109c805f5978bd32cbe",
        ("certain-drift", 7): "824eabc91dcee48f108afc58fc15d10519f9a6bc9b91620a4fc8ea6a270ecc8b",
        ("drifting-preference", 1): "ffacbdcd078879f7b48c6898bb2666fcd9f2f1351b113c90654489172b6d96b7",
        ("drifting-preference", 7): "d2f8910221c7f79c33abec4e91b49d38751d73b5faac7769b891e01e8d59dee5",
        ("means-one", 1): "52ea707e83d3f4b4f43941a3cca8b7cf51fc8ba40894774ab98028dd295e94dd",
        ("means-one", 7): "b57721b299d5da93f20d18addacca1fa9889aa359cdb06bc5e4e5e4c8fb1e396",
        ("quiet", 1): "7b5f82968844808fe6a55cb16f7e7bdba8e8dcd2e5ceb63f2a790f9f6b479295",
        ("quiet", 7): "ef745da454989cabc351c6b60f91c3f5b99fc5b05490f5d498a1d6703a2113b3",
        ("server-means-one", 1): "18f85be7f6cbbe28e72d46deeaecd4e982da364bd936a50a0d148c0ab920eba9",
        ("server-means-one", 7): "69fac88c3ae5f93a1a0eb2c4b379db948eb804a24c750afd8213bd85dbd9cb6f",
        ("sixteen-clients", 1): "0663f234845dd4313f9894dd9562c5c4c8966859485d7f1c4179fc4469da87de",
        ("sixteen-clients", 7): "9039b253ec455db86e221ced5644160260332ebccbd2dfaf268cf0036afcc54c",
        ("unstable-pairs", 1): "470851daff94938135d8b684607db8ef6263ffa6aae4dc61e33b4b87116cad44",
        ("unstable-pairs", 7): "c19002adb39ff1f768a8a80de7c320d14cac955b06ca00a592b6e0f2e3b4de7e",
        ("custom_workload.py", None): "621bb933f4f40a35aa66b1632cc169259e8f6d1f2dd9738d74982b8d13e7b387",
    },
}


def _recorded_corner(key) -> str:
    recorded = CORNER_DIGESTS.get(GENERATOR_VERSION)
    assert recorded is not None, (
        f"no corner digests recorded for GENERATOR_VERSION {GENERATOR_VERSION}; "
        "record the new output's digests under the new version"
    )
    return recorded[key]


class TestCornerDigests:
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("label", sorted(CORNER_SPECS))
    def test_corner_spec_matches_recorded_digest(self, label, seed):
        spec = replace(CORNER_SPECS[label], name=label)
        digest = _trace_digest(build_workload(spec, 3000, seed))
        assert digest == _recorded_corner((label, seed))

    def test_hand_built_example_matches_recorded_digest(self):
        path = EXAMPLES / "custom_workload.py"
        module_spec = importlib.util.spec_from_file_location("custom_workload", path)
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
        digest = _trace_digest(module.build_nightly_build_workload())
        assert digest == _recorded_corner(("custom_workload.py", None))


class TestMarkovGenerator:
    def test_validate_rejects_bad_rows(self):
        with pytest.raises(WorkloadError, match="sum"):
            validate_transitions({"a": {"a": 0.5}})
        with pytest.raises(WorkloadError, match="unknown states"):
            validate_transitions({"a": {"b": 1.0}})
        with pytest.raises(WorkloadError, match="empty"):
            validate_transitions({})
        with pytest.raises(WorkloadError, match="no successors"):
            validate_transitions({"a": {}})

    def test_generation_walks_table(self):
        table = {"a": {"b": 1.0}, "b": {"a": 1.0}}
        trace = MarkovTraceGenerator(table).generate(10, seed=1)
        assert trace.file_ids() == ["a", "b"] * 5

    def test_initial_state(self):
        table = {"a": {"b": 1.0}, "b": {"a": 1.0}}
        trace = MarkovTraceGenerator(table, initial="b").generate(3, seed=1)
        assert trace.file_ids()[0] == "b"

    def test_bad_initial_rejected(self):
        table = {"a": {"a": 1.0}}
        with pytest.raises(WorkloadError):
            MarkovTraceGenerator(table, initial="z")

    def test_deterministic(self):
        table = cycle_with_noise([f"f{i}" for i in range(5)], 0.5)
        gen = MarkovTraceGenerator(table)
        assert gen.generate(100, seed=3).file_ids() == gen.generate(
            100, seed=3
        ).file_ids()

    def test_negative_events(self):
        table = {"a": {"a": 1.0}}
        with pytest.raises(WorkloadError):
            MarkovTraceGenerator(table).generate(-1)


class TestCycleWithNoise:
    def test_valid_table(self):
        table = cycle_with_noise([f"f{i}" for i in range(6)], 0.8)
        validate_transitions(table)

    def test_full_fidelity_is_deterministic_cycle(self):
        table = cycle_with_noise(["a", "b", "c"], 1.0)
        assert table["a"] == {"b": 1.0, "c": 0.0} or table["a"]["b"] == 1.0

    def test_two_state(self):
        table = cycle_with_noise(["a", "b"], 0.5)
        assert table["a"] == {"b": 1.0}

    def test_rejects_bad_args(self):
        with pytest.raises(WorkloadError):
            cycle_with_noise(["a"], 0.5)
        with pytest.raises(WorkloadError):
            cycle_with_noise(["a", "b"], 1.5)

    def test_fidelity_monotone_in_entropy(self):
        from repro.core.entropy import successor_entropy

        files = [f"f{i}" for i in range(8)]
        entropies = []
        for fidelity in (1.0, 0.8, 0.5):
            trace = MarkovTraceGenerator(cycle_with_noise(files, fidelity)).generate(
                4000, seed=5
            )
            entropies.append(successor_entropy(trace.file_ids()))
        assert entropies[0] < entropies[1] < entropies[2]


class TestCatalog:
    def test_all_workloads_cataloged(self):
        from repro.workloads.catalog import CATALOG
        from repro.workloads.synthetic import WORKLOADS

        assert set(CATALOG) == set(WORKLOADS)

    def test_profiles_reference_real_specs(self):
        from repro.workloads.catalog import CATALOG

        for name, profile in CATALOG.items():
            assert profile.spec is not None
            assert profile.spec.name == name
            assert profile.stands_in_for
            assert profile.dominant_mechanisms
            assert profile.calibration_targets

    def test_describe_workload(self):
        from repro.workloads.catalog import describe_workload

        assert describe_workload("server").name == "server"
        with pytest.raises(WorkloadError, match="server"):
            describe_workload("cray")

    def test_catalog_rows_shape(self):
        from repro.workloads.catalog import catalog_rows

        rows = catalog_rows()
        assert rows[0] == ["workload", "stands in for", "character"]
        assert len(rows) == 5
