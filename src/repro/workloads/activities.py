"""Activity models: the building blocks of synthetic workloads.

The paper's workloads are driven by *applications and users doing
things*: builds walking source trees, scripts invoking the same
executables, users revisiting document sets.  An :class:`Activity` is
one such "thing" — a working set of files plus a rule for the order in
which they are touched.  Two concrete rules cover the spectrum the
paper describes:

* :class:`ScriptedActivity` — a deterministic cyclic chain, the model of
  application-driven access ("more application-driven access patterns,
  that will tend to be more predictable than user behavior", Section
  4.2).  Optional *ephemeral slots* emit a fresh, never-repeated file
  each cycle, modelling temporary/output files; this is what gives the
  ``write`` workload its churn.
* :class:`MarkovActivity` — a random walk over the working set with a
  tunably dominant successor, the model of interactive user behaviour.

Activities deliberately know nothing about clients or interleaving;
:mod:`repro.workloads.sessions` composes them into full traces.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import WorkloadError
from ..traces.events import EventKind
from .zipf import check_probability

#: One emitted access: (file identifier, operation kind).
Access = Tuple[str, EventKind]


class Activity(abc.ABC):
    """A named working set with an internal access order."""

    def __init__(self, name: str, files: Sequence[str]):
        if not files:
            raise WorkloadError(f"activity {name!r} needs at least one file")
        self.name = name
        self.files = list(files)

    @abc.abstractmethod
    def accesses(self, rng: random.Random) -> Iterator[Access]:
        """This activity's endless access stream, from its initial position.

        The stream keeps its position, and anything its rule mutates, in
        its own locals: the activity is left as built, and each call
        starts a fresh stream (a new stream is a reset).  Draws come
        from ``rng`` only as accesses are taken.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, files={len(self.files)})"


class ScriptedActivity(Activity):
    """A deterministic, cyclic chain of file accesses.

    Parameters
    ----------
    name, files:
        Identity and the ordered chain of file identifiers.
    ephemeral_slots:
        Chain positions that emit a *fresh* unique file identifier on
        every pass (and report :attr:`EventKind.CREATE`), modelling
        temporary and output files.  Fresh identifiers are derived from
        the activity name and the stream's cycle counter, so they never
        repeat within a stream — these files are the single-access
        population that successor entropy must exclude (Section 4.5).
        A session and an interleaver take one stream per activity and
        reject an activity listed twice.
    write_slots:
        Chain positions whose access is reported as
        :attr:`EventKind.WRITE` instead of OPEN (the file identifier is
        stable; only the operation kind differs).
    drift:
        Probability, evaluated once per completed cycle, of swapping two
        random chain slots.  Real inter-file relationships shift as
        projects evolve; drift is what makes recency-managed successor
        lists beat frequency-managed ones (the paper's Figure 5
        finding) — a frequency list clings to the pre-drift successor.
    loop_probability:
        Probability, evaluated at each chain step, of entering a
        *mini-loop*: re-visiting the last few chain files several times
        (edit-compile-run style) before advancing.  Mini-loops create
        highly predictable references at reuse distances of 2-10 files,
        the structure that makes a size-10 intervening cache strip more
        predictability than a size-1 cache (the paper's Figure 8
        observation).
    """

    #: Mini-loop geometry: span of files revisited, and repeat counts.
    LOOP_SPAN = (2, 8)
    LOOP_REPEATS = (3, 3)

    def __init__(
        self,
        name: str,
        files: Sequence[str],
        ephemeral_slots: Sequence[int] = (),
        write_slots: Sequence[int] = (),
        drift: float = 0.0,
        loop_probability: float = 0.0,
    ):
        super().__init__(name, files)
        self.drift = check_probability(f"activity {name!r}: drift", drift)
        self.loop_probability = check_probability(
            f"activity {name!r}: loop_probability", loop_probability
        )
        self._ephemeral = frozenset(ephemeral_slots)
        self._writes = frozenset(write_slots)
        out_of_range = [
            slot
            for slot in (set(self._ephemeral) | set(self._writes))
            if not 0 <= slot < len(self.files)
        ]
        if out_of_range:
            raise WorkloadError(
                f"activity {name!r}: slots {sorted(out_of_range)} outside the "
                f"chain of length {len(self.files)}"
            )

    def accesses(self, rng: random.Random) -> Iterator[Access]:
        """Walk the chain: drift closes each cycle, mini-loops follow a step.

        The last slot of a cycle is read after that cycle's drift swap
        and names its ephemeral file with the new cycle number.  A
        step's loop draw comes before the step is yielded; the revisits
        draw nothing, so they follow it as one batch.
        """
        random_ = rng.random
        randint = rng.randint
        name, drift, loop_probability = self.name, self.drift, self.loop_probability
        files = list(self.files)  # drift permutes this stream's own copy
        size = len(files)
        last = size - 1
        kinds = [
            EventKind.WRITE if slot in self._writes else EventKind.OPEN
            for slot in range(size)
        ]
        # Each stable slot's access, built once; None marks an ephemeral
        # slot, whose file is fresh every cycle.
        chain: List[Optional[Access]] = [
            None if slot in self._ephemeral else (files[slot], kinds[slot])
            for slot in range(size)
        ]
        create = EventKind.CREATE
        cycle = 0
        while True:
            for slot in range(size):
                if slot == last:
                    cycle += 1
                    if drift and random_() < drift and size >= 2:
                        a = rng.randrange(size)
                        b = rng.randrange(size)
                        files[a], files[b] = files[b], files[a]
                        for moved in (a, b):
                            if chain[moved] is not None:
                                chain[moved] = (files[moved], kinds[moved])
                access = chain[slot] or (f"{name}/tmp{cycle}.{slot}", create)
                if not loop_probability or random_() >= loop_probability:
                    yield access
                    continue
                span = randint(*self.LOOP_SPAN)
                repeats = randint(*self.LOOP_REPEATS)
                window = []
                for revisit in range(slot - span + 1, slot + 1):
                    revisit %= size
                    window.append(chain[revisit] or (f"{name}/tmp{cycle}.{revisit}", create))
                yield access
                yield from window * repeats


class MarkovActivity(Activity):
    """A random walk with one dominant successor per file.

    Each file's successor distribution gives probability ``stability``
    to a designated primary successor (a fixed permutation of the
    working set, so primary chains exist) and spreads the remainder
    uniformly over the other files.  ``stability`` near 1.0 approaches
    scripted behaviour; near ``1/len(files)`` it approaches an i.i.d.
    stream.
    """

    def __init__(
        self,
        name: str,
        files: Sequence[str],
        stability: float = 0.7,
        rng: Optional[random.Random] = None,
        write_fraction: float = 0.0,
        rewire_probability: float = 0.0,
    ):
        super().__init__(name, files)
        self.stability = check_probability("stability", stability)
        self.write_fraction = check_probability("write_fraction", write_fraction)
        self.rewire_probability = check_probability(
            "rewire_probability", rewire_probability
        )
        shuffler = rng if rng is not None else random.Random(hash(name) & 0xFFFF)
        order = list(self.files)
        shuffler.shuffle(order)
        #: primary successor map: a single cycle through the working set.
        self._primary: Dict[str, str] = {
            order[index]: order[(index + 1) % len(order)] for index in range(len(order))
        }
        self._initial = order[0]

    def accesses(self, rng: random.Random) -> Iterator[Access]:
        """Walk from the initial file; each step may first rewire the map.

        A rewire swaps the primary successors of two random files, which
        keeps the map a permutation while letting relationships evolve
        over the trace — the Markov analogue of scripted drift.  The
        stream rewires its own copy of the map.
        """
        random_ = rng.random
        randrange = rng.randrange
        files = self.files
        size = len(files)
        stability, write_fraction = self.stability, self.write_fraction
        rewire = self.rewire_probability
        opened, written = EventKind.OPEN, EventKind.WRITE
        primary = dict(self._primary)
        current = self._initial
        while True:
            if rewire and random_() < rewire and size >= 2:
                a = files[randrange(size)]
                b = files[randrange(size)]
                primary[a], primary[b] = primary[b], primary[a]
            if size == 1 or random_() < stability:
                successor = primary[current]
            else:
                successor = current
                while successor == current:
                    successor = files[randrange(size)]
            if write_fraction and random_() < write_fraction:
                yield current, written
            else:
                yield current, opened
            current = successor


def make_file_names(prefix: str, count: int) -> List[str]:
    """Generate ``count`` distinct file identifiers under a prefix."""
    if count <= 0:
        raise WorkloadError(f"count must be positive, got {count}")
    return [f"{prefix}/f{index:04d}" for index in range(count)]
