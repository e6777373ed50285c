"""Cold, isolated set-up: generate and pack a workload into a fresh cache.

``setup_s`` must always pay generation plus columnar pack, so every
set-up points ``REPRO_TRACE_CACHE`` at a new empty directory inside the
run's work directory and goes through the artifact cache exactly as
the figure commands do (:func:`repro.traces.artifacts.load_or_generate_columnar`).
Nothing an earlier run left in ``~/.cache/repro`` is ever read.

Set-up runs :data:`SETUP_REPS` times per run.  Each step of a set-up
(generation, pack, open, and for serve-mixed the daemon start) is its
own slice between drift reference slices: the artifact cache's calls
into the generator and the columnar codec are wrapped for the set-up
only.  Generation takes seconds, as long as the host's spells of fast
and slow speed, so one phase-wide reference time does not fit every
step: each step is scaled to the nominal host by its own two bracketing
references (:meth:`drift.DriftMeter.slice_scale`).  ``setup_s`` sums
each step's median nominal time across the repetitions.  The median,
not the low quantile, because each time is already scaled: what is
left is the error of a spell changing mid-step, which goes both ways.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Dict, List, NamedTuple, Optional

from layers import patched, setup_targets
from measure import median

#: Set-ups per run; each step reports its median across them.
SETUP_REPS = 5

CACHE_ENV_VAR = "REPRO_TRACE_CACHE"

SETUP_LAYERS = ("workloads.generate_s", "traces.pack_s", "traces.open_s")

#: The step key of the work ``cold_setup(then=...)`` adds to a set-up.
THEN_STEP = "then"


class Setup(NamedTuple):
    """The last set-up's products and every repetition's nominal step times."""

    ctrace: object
    extra: object
    seconds: float
    steps: Dict[str, List[float]]
    layers: Dict[str, float]


def cold_setup(
    ctx,
    workload: str,
    events: int,
    then: Optional[Callable[[object], object]] = None,
    release: Optional[Callable[[object], None]] = None,
) -> Setup:
    """Generate + pack ``SETUP_REPS`` times; returns the last set-up.

    ``then(ctrace)`` is one more timed step after the pack (the serve
    workload starts its daemon there); ``release`` undoes it for every
    repetition but the last, outside the timed region.  ``seconds`` is
    the nominal set-up time; ``layers`` holds the nominal generation,
    pack and open times, filled on traced runs only.
    """
    from repro.traces.artifacts import load_or_generate_columnar

    steps: Dict[str, List[float]] = {key: [] for key in SETUP_LAYERS}
    taken: Dict[str, float] = {}

    def bracketed(function, key):
        @functools.wraps(function)
        def step(*args, **kwargs):
            result, raw = ctx.meter.measure(lambda: function(*args, **kwargs))
            taken[key] = taken.get(key, 0.0) + raw * ctx.meter.slice_scale()
            return result

        return step

    ctrace = extra = None
    ctx.meter.pause()
    with patched(bracketed, setup_targets()):
        for rep in range(SETUP_REPS):
            cache = ctx.workdir / f"trace-cache-{rep}"
            cache.mkdir(parents=True)
            os.environ[CACHE_ENV_VAR] = str(cache)
            taken.clear()
            ctrace = load_or_generate_columnar(workload, events, ctx.seed)
            if then is not None:
                extra = bracketed(then, THEN_STEP)(ctrace)
            for key in SETUP_LAYERS + ((THEN_STEP,) if then is not None else ()):
                steps.setdefault(key, []).append(taken.get(key, 0.0))
            if release is not None and rep < SETUP_REPS - 1:
                release(extra)
                ctx.meter.pause()
    nominal = {key: median(values) for key, values in steps.items()}
    layers = {key: nominal[key] for key in SETUP_LAYERS} if ctx.trace else {}
    return Setup(ctrace, extra, sum(nominal.values()), steps, layers)
