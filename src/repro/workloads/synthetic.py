"""The four calibrated paper workloads.

The paper evaluates on four CMU DFSTrace traces, renamed for clarity
(Section 4.1):

* ``workstation`` (mozart) — a personal workstation: one user, a
  moderate mix of scripted and interactive behaviour.
* ``users`` (ives) — the system with the largest number of users: many
  concurrent sessions, finely interleaved.
* ``write`` (dvorak) — the system with the largest proportion of write
  activity: heavy mutation, temporary-file churn.
* ``server`` (barber) — a server with the highest system-call rate and
  "minimal user-interactive workloads": application-driven, highly
  predictable access.

Those traces are not redistributable, so this module *synthesizes*
workloads with the properties the paper attributes to each system; the
substitution argument lives in DESIGN.md and the calibration tests in
``tests/test_workload_calibration.py`` assert that the qualitative
ordering the paper relies on actually holds (server most predictable,
users most interleaved, write most churn-laden).

Every generator is a pure function of ``(events, seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import WorkloadError
from ..traces.events import EventKind, Trace, collector_paused
from .activities import Activity, MarkovActivity, ScriptedActivity, make_file_names
from .sessions import ClientSession, Draw, Interleaver, SessionConfig, build_trace
from .zipf import ZipfSampler, geometric

#: Signature shared by the four workload factories.
WorkloadFactory = Callable[[int, int], Trace]

#: Version tag of the synthetic generators, embedded in on-disk trace
#: artifact names (see :mod:`repro.traces.artifacts`).  Bump this on ANY
#: change that alters generated traces — specs, activities, sessions,
#: interleaving, or repeat expansion — so stale cached artifacts can
#: never masquerade as current output.  ``tests/test_synthetic.py``
#: records the output's digests per version and fails when they move.
GENERATOR_VERSION = 1

#: Shared executables touched across activities (the paper's make/shell
#: example).  One pool for all workloads so the identifiers are stable.
SHARED_UTILITIES = (
    "bin/sh",
    "bin/make",
    "bin/ls",
    "lib/libc.so",
    "etc/passwd",
)


@dataclass
class WorkloadSpec:
    """Declarative description of a synthetic workload.

    The four presets below are instances of this spec; users can build
    their own mixes for sensitivity studies.
    """

    name: str
    clients: int = 1
    activities_per_client: int = 20
    chain_length: int = 40
    scripted_fraction: float = 0.6
    markov_stability: float = 0.7
    burst_mean: float = 40.0
    run_mean: float = 8.0
    activity_exponent: float = 1.0
    noise_files: int = 300
    noise_probability: float = 0.05
    shared_probability: float = 0.5
    ephemeral_fraction: float = 0.0
    write_slot_fraction: float = 0.0
    markov_write_fraction: float = 0.0
    scripted_drift: float = 0.0
    loop_probability: float = 0.0
    markov_rewire: float = 0.0
    #: Fraction of each chain's slots drawn from the shared library
    #: pool instead of activity-private files.  Library files appear in
    #: many activities with *context-dependent* successors — the
    #: paper's make/shell example — which is what makes recency beat
    #: frequency for successor lists and what motivates overlapping
    #: (non-partition) groups.
    library_fraction: float = 0.0
    #: Size of the shared library pool (picked with Zipf skew).
    library_files: int = 150
    #: Probability that an access is immediately repeated (stat/open/
    #: read patterns re-opening the same file); multiplicity is
    #: geometric.  Tiny intervening caches absorb exactly these.
    repeat_probability: float = 0.0
    repeat_mean: float = 1.5
    #: Probability per activity switch of promoting a random activity
    #: to the top of the session preference order (interest drift).
    preference_drift: float = 0.0

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on out-of-range parameters."""
        if self.clients <= 0:
            raise WorkloadError("clients must be positive")
        if self.activities_per_client <= 0:
            raise WorkloadError("activities_per_client must be positive")
        if self.chain_length <= 1:
            raise WorkloadError("chain_length must exceed 1")
        for label, fraction in (
            ("scripted_fraction", self.scripted_fraction),
            ("ephemeral_fraction", self.ephemeral_fraction),
            ("write_slot_fraction", self.write_slot_fraction),
            ("markov_write_fraction", self.markov_write_fraction),
            ("noise_probability", self.noise_probability),
            ("shared_probability", self.shared_probability),
            ("scripted_drift", self.scripted_drift),
            ("loop_probability", self.loop_probability),
            ("markov_rewire", self.markov_rewire),
            ("library_fraction", self.library_fraction),
            ("repeat_probability", self.repeat_probability),
            ("preference_drift", self.preference_drift),
        ):
            if not 0.0 <= fraction <= 1.0:
                raise WorkloadError(f"{label} must be in [0, 1], got {fraction}")
        if self.library_files < 0:
            raise WorkloadError("library_files must be non-negative")
        if self.repeat_mean < 1.0:
            raise WorkloadError("repeat_mean must be >= 1")


def _inject_library_files(
    files: List[str],
    spec: WorkloadSpec,
    library: Sequence[str],
    rng: random.Random,
) -> List[str]:
    """Replace a fraction of a chain's slots with shared library picks.

    Library files end up inside many activities' chains, each context
    giving them a different successor — the paper's shell/make example
    (Section 2.1) realized at scale.  Picks are Zipf-skewed so a few
    library files become very popular; duplicates within one chain are
    avoided (a handful of retries, then the slot keeps its private
    file).
    """
    if not library or not spec.library_fraction:
        return files
    sampler = ZipfSampler(len(library), 1.0)
    in_chain = set(files)
    for slot in range(len(files)):
        if rng.random() >= spec.library_fraction:
            continue
        for _ in range(4):
            candidate = library[sampler.sample(rng)]
            if candidate not in in_chain:
                in_chain.discard(files[slot])
                files[slot] = candidate
                in_chain.add(candidate)
                break
    return files


def _build_activities(
    spec: WorkloadSpec,
    client_index: int,
    rng: random.Random,
    library: Sequence[str] = (),
) -> List[Activity]:
    """Construct one client's activity set from a spec."""
    activities: List[Activity] = []
    for activity_index in range(spec.activities_per_client):
        label = f"{spec.name}/c{client_index}/a{activity_index:02d}"
        files = make_file_names(label, spec.chain_length)
        files = _inject_library_files(files, spec, library, rng)
        if rng.random() < spec.scripted_fraction:
            slots = list(range(spec.chain_length))
            rng.shuffle(slots)
            ephemeral_count = int(spec.ephemeral_fraction * spec.chain_length)
            write_count = int(spec.write_slot_fraction * spec.chain_length)
            ephemeral = slots[:ephemeral_count]
            writes = slots[ephemeral_count : ephemeral_count + write_count]
            activities.append(
                ScriptedActivity(
                    label,
                    files,
                    ephemeral_slots=ephemeral,
                    write_slots=writes,
                    drift=spec.scripted_drift,
                    loop_probability=spec.loop_probability,
                )
            )
        else:
            activities.append(
                MarkovActivity(
                    label,
                    files,
                    stability=spec.markov_stability,
                    rng=random.Random(rng.randrange(2**31)),
                    write_fraction=spec.markov_write_fraction,
                    rewire_probability=spec.markov_rewire,
                )
            )
    return activities


def build_workload(spec: WorkloadSpec, events: int, seed: int) -> Trace:
    """Materialize a spec into a trace of ``events`` accesses."""
    spec.validate()
    if events < 0:
        raise WorkloadError(f"events must be non-negative, got {events}")
    rng = random.Random(seed)
    noise_pool = make_file_names(f"{spec.name}/noise", spec.noise_files) if spec.noise_files else []
    library = (
        make_file_names(f"{spec.name}/lib", spec.library_files)
        if spec.library_files and spec.library_fraction
        else []
    )
    sessions = []
    for client_index in range(spec.clients):
        config = SessionConfig(
            burst_mean=spec.burst_mean,
            activity_exponent=spec.activity_exponent,
            shared_utilities=SHARED_UTILITIES,
            shared_probability=spec.shared_probability,
            noise_files=noise_pool,
            noise_probability=spec.noise_probability,
            preference_drift=spec.preference_drift,
        )
        sessions.append(
            ClientSession(
                client_id=f"client{client_index:02d}",
                activities=_build_activities(spec, client_index, rng, library),
                config=config,
            )
        )
    with collector_paused():
        draws = Interleaver(sessions, run_mean=spec.run_mean).draw(events, rng)
        return build_trace(_expand_repeats(draws, spec, rng), spec.name)


def _expand_repeats(
    draws: List[Draw], spec: WorkloadSpec, rng: random.Random
) -> List[Draw]:
    """Insert immediate re-opens, preserving the requested length.

    With probability ``repeat_probability`` each access is followed by a
    geometric number of extra opens of the same file, modelling the
    stat/open/read bursts real system-call traces exhibit.  The result
    is truncated back to the original event count so workload length
    stays a pure function of the request.
    """
    if not spec.repeat_probability:
        return draws
    limit = len(draws)
    expanded: List[Draw] = []
    for draw in draws:
        if len(expanded) >= limit:
            break
        expanded.append(draw)
        if rng.random() < spec.repeat_probability:
            extra = geometric(rng, spec.repeat_mean)
            repeat = (draw[0], EventKind.OPEN, draw[2])
            expanded.extend([repeat] * min(extra, limit - len(expanded)))
    return expanded


# -- the four paper workloads ---------------------------------------------

WORKSTATION_SPEC = WorkloadSpec(
    name="workstation",
    clients=1,
    activities_per_client=25,
    chain_length=40,
    scripted_fraction=0.6,
    markov_stability=0.85,
    burst_mean=45.0,
    activity_exponent=0.9,
    noise_files=300,
    noise_probability=0.06,
    shared_probability=0.5,
    write_slot_fraction=0.08,
    scripted_drift=0.7,
    loop_probability=0.12,
    markov_rewire=0.03,
    library_fraction=0.25,
    library_files=150,
    repeat_probability=0.15,
    preference_drift=0.15,
)

USERS_SPEC = WorkloadSpec(
    name="users",
    clients=12,
    activities_per_client=6,
    chain_length=30,
    scripted_fraction=0.45,
    markov_stability=0.6,
    burst_mean=30.0,
    run_mean=2.5,
    activity_exponent=0.8,
    noise_files=250,
    noise_probability=0.12,
    shared_probability=0.5,
    write_slot_fraction=0.06,
    scripted_drift=0.35,
    loop_probability=0.18,
    markov_rewire=0.01,
    library_fraction=0.30,
    library_files=150,
    repeat_probability=0.12,
    preference_drift=0.20,
)

WRITE_SPEC = WorkloadSpec(
    name="write",
    clients=2,
    activities_per_client=18,
    chain_length=40,
    scripted_fraction=0.7,
    markov_stability=0.65,
    burst_mean=50.0,
    run_mean=12.0,
    activity_exponent=0.9,
    noise_files=300,
    noise_probability=0.06,
    shared_probability=0.4,
    ephemeral_fraction=0.22,
    write_slot_fraction=0.30,
    markov_write_fraction=0.3,
    scripted_drift=0.45,
    loop_probability=0.10,
    markov_rewire=0.003,
    library_fraction=0.12,
    library_files=150,
    repeat_probability=0.12,
    preference_drift=0.15,
)

SERVER_SPEC = WorkloadSpec(
    name="server",
    clients=1,
    activities_per_client=30,
    chain_length=60,
    scripted_fraction=0.97,
    markov_stability=0.9,
    burst_mean=220.0,
    activity_exponent=1.1,
    noise_files=200,
    noise_probability=0.01,
    shared_probability=0.3,
    write_slot_fraction=0.03,
    scripted_drift=0.10,
    loop_probability=0.02,
    markov_rewire=0.001,
    library_fraction=0.06,
    library_files=150,
    repeat_probability=0.05,
    preference_drift=0.05,
)


def make_workstation(events: int, seed: int = 1) -> Trace:
    """The ``workstation`` workload (paper's mozart)."""
    return build_workload(WORKSTATION_SPEC, events, seed)


def make_users(events: int, seed: int = 2) -> Trace:
    """The ``users`` workload (paper's ives)."""
    return build_workload(USERS_SPEC, events, seed)


def make_write(events: int, seed: int = 3) -> Trace:
    """The ``write`` workload (paper's dvorak)."""
    return build_workload(WRITE_SPEC, events, seed)


def make_server(events: int, seed: int = 4) -> Trace:
    """The ``server`` workload (paper's barber)."""
    return build_workload(SERVER_SPEC, events, seed)


#: Registry used by the CLI, experiments, and benchmarks.
WORKLOADS: Dict[str, WorkloadFactory] = {
    "workstation": make_workstation,
    "users": make_users,
    "write": make_write,
    "server": make_server,
}


def make_workload(name: str, events: int, seed: Optional[int] = None) -> Trace:
    """Build a paper workload by name.

    ``seed=None`` uses each workload's default seed, which is what the
    figure-reproduction experiments do.
    """
    try:
        factory = WORKLOADS[name]
    except KeyError:
        names = ", ".join(sorted(WORKLOADS))
        raise WorkloadError(f"unknown workload {name!r} (expected one of: {names})")
    if seed is None:
        return factory(events)
    return factory(events, seed)
