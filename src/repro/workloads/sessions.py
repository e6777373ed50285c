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
from itertools import chain, count, islice, repeat
from operator import itemgetter
from typing import Iterator, List, NamedTuple, Optional, Sequence

from ..errors import WorkloadError
from ..traces.events import EventKind, Trace, events_from_columns
from .activities import Access, Activity
from .zipf import ZipfSampler, check_mean, check_probability, geometric


class Draws(NamedTuple):
    """Interleaved accesses as three parallel columns, one entry per access."""

    file_id: List[str]
    kind: List[EventKind]
    client_id: List[str]


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
        if len(set(map(id, self.activities))) < len(self.activities):
            # Each entry walks its own stream: a repeated object would
            # repeat its ephemeral files.
            raise WorkloadError(f"session {client_id!r} lists an activity twice")
        self.config = config if config is not None else SessionConfig()
        check_mean("burst_mean", self.config.burst_mean)
        for label in ("shared_probability", "noise_probability", "preference_drift"):
            check_probability(label, getattr(self.config, label))
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

    def accesses(self, rng: random.Random) -> Iterator[Access]:
        """This session's endless access stream.

        Each activity switch may promote a random activity to the top of
        the preference order (the Zipf sampler draws ranks, so drift
        reshuffles what lives at the top ranks over time), picks the
        next activity and its geometric burst, and may touch a shared
        utility first.  Within a burst every access may be noise
        instead, which interrupts the activity without advancing it.
        Like an activity's, the stream's state is its own: each call
        starts afresh, with a fresh stream per activity.
        """
        random_ = rng.random
        config = self.config
        streams = [activity.accesses(rng) for activity in self.activities]
        # rank -> index into streams
        preference = list(range(len(streams)))
        drift = config.preference_drift
        pick_activity = self._activity_sampler.sample
        shared = [(file_id, EventKind.OPEN) for file_id in config.shared_utilities]
        shared_probability = config.shared_probability
        noise = [(file_id, EventKind.OPEN) for file_id in config.noise_files]
        noise_probability = config.noise_probability
        noise_sampler = self._noise_sampler
        while True:
            if drift and random_() < drift and len(preference) > 1:
                preference.insert(0, preference.pop(rng.randrange(len(preference))))
            stream = streams[preference[pick_activity(rng)]]
            burst = geometric(rng, config.burst_mean)
            if shared and random_() < shared_probability:
                yield shared[self._shared_sampler.sample(rng)]
            next_access = stream.__next__
            for _ in range(burst):
                while noise and random_() < noise_probability:
                    yield noise[noise_sampler.sample(rng)]
                yield next_access()


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
        owned = [id(activity) for session in self.sessions for activity in session.activities]
        if len(set(owned)) < len(owned):
            raise WorkloadError("Interleaver sessions must be distinct and share no activity")
        self.run_mean = check_mean("run_mean", run_mean)

    def draw(self, events: int, rng: random.Random) -> Draws:
        """Draw ``events`` accesses, one column per field.

        Each run draws its session as ``rng.randrange(len(sessions))``
        does, by ``getrandbits`` rejection over ``n.bit_length()`` bits
        (so even one session draws a bit per run), and its length as
        :func:`~repro.workloads.zipf.geometric` does, drawing nothing
        for a mean of 1.  The run's accesses then come off that
        session's stream, so every draw happens in the order a
        one-access-at-a-time scheduler would make it, and none is made
        past the last event.
        """
        if events < 0:
            raise WorkloadError(f"events must be non-negative, got {events}")
        getrandbits = rng.getrandbits
        random_ = rng.random
        streams = [session.accesses(rng) for session in self.sessions]
        sessions = len(streams)
        width = sessions.bit_length()
        stop = 1.0 / self.run_mean
        picks: List[int] = []
        runs: List[int] = []

        def scheduled() -> Iterator[Iterator[Access]]:
            """One slice of a session's stream per run, drawn as it is reached."""
            pick, run_length = picks.append, runs.append
            while True:
                index = getrandbits(width)
                while index >= sessions:
                    index = getrandbits(width)
                run = 1
                if stop < 1.0:
                    while random_() > stop:
                        run += 1
                pick(index)
                run_length(run)
                yield islice(streams[index], run)

        accesses = list(islice(chain.from_iterable(scheduled()), events))
        clients = [session.client_id for session in self.sessions]
        client_runs = map(repeat, map(clients.__getitem__, picks), runs)
        return Draws(
            list(map(itemgetter(0), accesses)),
            list(map(itemgetter(1), accesses)),
            list(islice(chain.from_iterable(client_runs), events)),
        )

    def generate(self, events: int, rng: random.Random, name: str = "trace") -> Trace:
        """Produce a trace of ``events`` accesses."""
        return build_trace(self.draw(events, rng), name)


def build_trace(draws: Draws, name: str) -> Trace:
    """A trace holding one event per draw, numbered in draw order."""
    events = events_from_columns(
        file_id=draws.file_id,
        kind=draws.kind,
        sequence=count(),
        client_id=draws.client_id,
        user_id=repeat(""),
        process_id=repeat(""),
    )
    return Trace(events=events, name=name)
