"""Session and interleaving model.

A :class:`ClientSession` is one machine's stream: the session holds a
set of activities, runs the current one for a burst, then switches to
another with Zipf-skewed preference (users return to the same few tasks
most of the time).  On a switch the session may first touch a *shared
utility* file — the paper's own motivating example: "a shell executable
that is read upon using any script, or the make utility, the executable
of which is often accessed when working with different build trees"
(Section 2.1).  Shared utilities are what make overlapping (non-
partition) groups necessary.

The :class:`Interleaver` merges several sessions into one global
sequence with sticky scheduling: the active client keeps the floor for
a geometric run, so single-client workloads look like long coherent
phases while many-client workloads look finely interleaved — the axis
separating the paper's ``workstation`` and ``users`` traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..traces.events import EventKind, Trace, TraceEvent
from .activities import Access, Activity
from .zipf import ZipfSampler, geometric

#: One interleaved access: (file identifier, operation kind, client id).
Draw = Tuple[str, EventKind, str]


@dataclass
class SessionConfig:
    """Tuning knobs for one client session.

    Attributes
    ----------
    burst_mean:
        Mean number of accesses a session spends on one activity before
        switching (geometric).
    activity_exponent:
        Zipf exponent over the session's activity list; higher values
        concentrate time on the first few activities.
    shared_utilities:
        File identifiers (e.g. ``bin/sh``, ``bin/make``) that may be
        touched when an activity starts.
    shared_probability:
        Probability that an activity switch begins with a shared
        utility access.
    noise_files:
        A background pool (daemons, stray lookups) sampled with
        Zipf skew at rate ``noise_probability`` *instead of* the
        activity's next access — noise interrupts but does not advance
        the activity, polluting successor lists exactly the way
        unrelated traffic does in real traces.
    noise_probability:
        Per-access probability of emitting noise.
    preference_drift:
        Probability, evaluated at each activity switch, that a random
        activity is promoted to the top of the session's preference
        order.  Models interest shifting between projects over time —
        the non-stationarity that makes recency-managed metadata track
        reality while frequency-managed metadata clings to history.
    """

    burst_mean: float = 40.0
    activity_exponent: float = 1.0
    shared_utilities: Sequence[str] = ()
    shared_probability: float = 0.5
    noise_files: Sequence[str] = ()
    noise_probability: float = 0.0
    preference_drift: float = 0.0


class ClientSession:
    """One client's access stream over its personal set of activities."""

    def __init__(
        self,
        client_id: str,
        activities: Sequence[Activity],
        config: Optional[SessionConfig] = None,
    ):
        if not activities:
            raise WorkloadError(f"session {client_id!r} needs activities")
        self.client_id = client_id
        self.activities = list(activities)
        self.config = config if config is not None else SessionConfig()
        self._activity_sampler = ZipfSampler(
            len(self.activities), self.config.activity_exponent
        )
        self._noise_sampler = (
            ZipfSampler(len(self.config.noise_files), 1.0)
            if self.config.noise_files
            else None
        )
        self._shared_sampler = (
            ZipfSampler(len(self.config.shared_utilities), 1.0)
            if self.config.shared_utilities
            else None
        )
        self._current: Optional[Activity] = None
        self._remaining_burst = 0
        self._pending_shared: Optional[str] = None
        #: Preference order: rank -> index into self.activities.  The
        #: Zipf sampler draws ranks; drift reshuffles what lives at the
        #: top ranks over time.
        self._preference = list(range(len(self.activities)))

    def _switch_activity(self, rng: random.Random) -> None:
        """Pick the next activity and schedule its burst."""
        if (
            self.config.preference_drift
            and rng.random() < self.config.preference_drift
            and len(self._preference) > 1
        ):
            promoted = self._preference.pop(rng.randrange(len(self._preference)))
            self._preference.insert(0, promoted)
        rank = self._activity_sampler.sample(rng)
        choice = self._preference[rank]
        self._current = self.activities[choice]
        self._remaining_burst = geometric(rng, self.config.burst_mean)
        if (
            self._shared_sampler is not None
            and rng.random() < self.config.shared_probability
        ):
            self._pending_shared = self.config.shared_utilities[
                self._shared_sampler.sample(rng)
            ]

    def emit(self, rng: random.Random) -> Access:
        """Produce this session's next access."""
        if self._pending_shared is not None:
            shared = self._pending_shared
            self._pending_shared = None
            return shared, EventKind.OPEN
        if self._current is None or self._remaining_burst <= 0:
            self._switch_activity(rng)
            if self._pending_shared is not None:
                shared = self._pending_shared
                self._pending_shared = None
                return shared, EventKind.OPEN
        if (
            self._noise_sampler is not None
            and rng.random() < self.config.noise_probability
        ):
            noise_file = self.config.noise_files[self._noise_sampler.sample(rng)]
            return noise_file, EventKind.OPEN
        self._remaining_burst -= 1
        assert self._current is not None
        return self._current.emit(rng)


class Interleaver:
    """Merge client sessions into one globally ordered trace.

    Scheduling is sticky: the active session keeps emitting for a
    geometric run of mean ``run_mean`` before the scheduler picks again
    (uniformly).  ``run_mean=1`` gives per-access round-robin-like
    interleaving; large values approach phase-by-phase concatenation.
    """

    def __init__(self, sessions: Sequence[ClientSession], run_mean: float = 8.0):
        if not sessions:
            raise WorkloadError("Interleaver needs at least one session")
        self.sessions = list(sessions)
        self.run_mean = run_mean

    def draw(self, events: int, rng: random.Random) -> List[Draw]:
        """Draw ``events`` accesses as plain ``(file_id, kind, client_id)`` tuples."""
        if events < 0:
            raise WorkloadError(f"events must be non-negative, got {events}")
        draws: List[Draw] = []
        active: Optional[ClientSession] = None
        remaining_run = 0
        for _ in range(events):
            if active is None or remaining_run <= 0:
                active = self.sessions[rng.randrange(len(self.sessions))]
                remaining_run = geometric(rng, self.run_mean)
            remaining_run -= 1
            file_id, kind = active.emit(rng)
            draws.append((file_id, kind, active.client_id))
        return draws

    def generate(self, events: int, rng: random.Random, name: str = "trace") -> Trace:
        """Produce a trace of ``events`` accesses."""
        return build_trace(self.draw(events, rng), name)


def build_trace(draws: Sequence[Draw], name: str) -> Trace:
    """A trace holding one event per draw, numbered in draw order."""
    return Trace(
        events=[
            TraceEvent(file_id, kind, sequence, client_id)
            for sequence, (file_id, kind, client_id) in enumerate(draws)
        ],
        name=name,
    )
