"""Unit tests for the synthetic paper workloads (structure, not shape).

Shape/calibration assertions live in test_workload_calibration.py; this
module tests the generator machinery itself: determinism, validation,
event accounting, and the spec registry.
"""

import hashlib

import pytest

from repro.errors import WorkloadError
from repro.traces.events import EventKind
from repro.workloads.markov import (
    MarkovTraceGenerator,
    cycle_with_noise,
    validate_transitions,
)
from repro.workloads.synthetic import (
    GENERATOR_VERSION,
    SERVER_SPEC,
    WORKLOADS,
    WRITE_SPEC,
    WorkloadSpec,
    build_workload,
    make_workload,
)


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
