"""Unit tests for the parameter sweep runner."""

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.obs import WindowedCollector, collecting, windowing
from repro.sim.sweep import SweepGrid, pivot, run_sweep


def square_point(n):
    """Module-level (hence picklable) point runner for parallel tests."""
    return {"square": n * n}


def colliding_point(n):
    """A picklable point runner whose measurement reuses a parameter name."""
    return {"n": n + 1}


class TestSweepGrid:
    def test_points_cartesian(self):
        grid = SweepGrid().add_axis("a", [1, 2]).add_axis("b", ["x", "y"])
        points = grid.points()
        assert len(points) == 4
        assert {"a": 1, "b": "x"} in points
        assert {"a": 2, "b": "y"} in points

    def test_order_deterministic(self):
        grid = SweepGrid().add_axis("a", [1, 2]).add_axis("b", [10, 20])
        assert grid.points()[0] == {"a": 1, "b": 10}
        assert grid.points()[1] == {"a": 1, "b": 20}

    def test_len(self):
        grid = SweepGrid().add_axis("a", [1, 2, 3]).add_axis("b", [1, 2])
        assert len(grid) == 6

    def test_empty_grid_single_point(self):
        assert SweepGrid().points() == [{}]

    def test_rejects_empty_axis(self):
        with pytest.raises(ExperimentError):
            SweepGrid().add_axis("a", [])

    def test_rejects_duplicate_axis(self):
        grid = SweepGrid().add_axis("a", [1])
        with pytest.raises(ExperimentError):
            grid.add_axis("a", [2])


class TestRunSweep:
    def test_merges_params_and_measurements(self):
        grid = SweepGrid().add_axis("n", [1, 2, 3])
        records = run_sweep(grid, lambda n: {"square": n * n})
        assert records == [
            {"n": 1, "square": 1},
            {"n": 2, "square": 4},
            {"n": 3, "square": 9},
        ]

    def test_rejects_key_collision(self):
        grid = SweepGrid().add_axis("n", [1])
        with pytest.raises(ExperimentError, match="collide"):
            run_sweep(grid, lambda n: {"n": 99})

    def test_progress_callback(self):
        seen = []
        grid = SweepGrid().add_axis("n", [5, 6])
        run_sweep(
            grid,
            lambda n: {"out": n},
            progress=lambda i, total, params, _elapsed: seen.append(
                (i, total, params["n"])
            ),
        )
        assert seen == [(0, 2, 5), (1, 2, 6)]

    def test_progress_callback_receives_elapsed(self):
        seen = []
        grid = SweepGrid().add_axis("n", [5, 6])
        run_sweep(
            grid,
            lambda n: {"out": n},
            progress=lambda i, total, params, elapsed: seen.append(
                (i, total, params["n"], elapsed)
            ),
        )
        assert [entry[:3] for entry in seen] == [(0, 2, 5), (1, 2, 6)]
        elapsed_values = [entry[3] for entry in seen]
        assert all(value >= 0.0 for value in elapsed_values)
        assert elapsed_values[0] <= elapsed_values[1]

    def test_point_seconds_reach_samples_not_records(self):
        grid = SweepGrid().add_axis("n", [1, 2])
        with windowing(window=10) as collector:
            records = run_sweep(grid, lambda n: {"out": n})
        # Records hold parameters and measurements only (exact-equality
        # consumers depend on this); each point's wall time is a sample's.
        assert records == [{"n": 1, "out": 1}, {"n": 2, "out": 2}]
        seconds = [sample.seconds for sample in collector.sweep_samples()]
        assert len(seconds) == 2
        assert all(value >= 0.0 for value in seconds)


class TestParallelSweep:
    def test_parallel_matches_serial(self):
        grid = SweepGrid().add_axis("n", [1, 2, 3, 4, 5])
        serial = run_sweep(grid, square_point)
        parallel = run_sweep(grid, square_point, workers=4)
        assert parallel == serial
        assert [record["n"] for record in parallel] == [1, 2, 3, 4, 5]

    def test_unpicklable_callable_falls_back_to_serial(self):
        # A lambda cannot cross a process boundary; workers>1 must still
        # produce the serial result rather than raise.
        grid = SweepGrid().add_axis("n", [1, 2, 3])
        records = run_sweep(grid, lambda n: {"square": n * n}, workers=4)
        assert records == run_sweep(grid, square_point)

    def test_parallel_key_collision_rejected(self):
        # The pool path must surface the collision, not fall back to serial.
        grid = SweepGrid().add_axis("n", [1, 2])
        with pytest.raises(ExperimentError, match="collide"):
            run_sweep(grid, colliding_point, workers=2)

    def test_parallel_progress_order(self):
        seen = []
        grid = SweepGrid().add_axis("n", [1, 2, 3, 4])
        run_sweep(
            grid,
            square_point,
            workers=2,
            progress=lambda i, total, params, elapsed: seen.append((i, params["n"])),
        )
        assert seen == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_single_point_grid_stays_serial(self):
        grid = SweepGrid().add_axis("n", [7])
        assert run_sweep(grid, square_point, workers=8) == [
            {"n": 7, "square": 49}
        ]

    def test_parallel_point_errors_propagate(self):
        grid = SweepGrid().add_axis("n", [1])
        with pytest.raises(ExperimentError, match="collide"):
            run_sweep(
                SweepGrid().add_axis("n", [1, 2]), square_colliding, workers=2
            )


def injected_point(n, fail_at=None, exit_at=None, parent=None):
    """A picklable point runner that raises at ``fail_at`` and, in a
    pool worker only, kills its process at ``exit_at``."""
    if n == fail_at:
        raise OSError(f"run_point failed at {n}")
    if n == exit_at and os.getpid() != parent:
        os._exit(1)
    return {"square": n * n}


class TestInjectedFailures:
    """One failure, in a callback, in run_point or in the pool, at any
    point: no point streams twice, a pool failure still returns the
    serial records, and every other error reaches the caller."""

    POINTS = 4

    @settings(max_examples=40, deadline=None)
    @given(
        site=st.sampled_from(["progress", "on_sample", "run_point", "exit", "submit"]),
        at=st.integers(0, POINTS - 1),
        workers=st.sampled_from([1, 2]),
    )
    def test_one_failure(self, site, at, workers):
        grid = SweepGrid().add_axis("n", list(range(self.POINTS)))
        serial = run_sweep(grid, injected_point)
        pending = [site]  # progress and on_sample fail once

        def fail_once(index, where):
            if site == where and index == at and pending:
                pending.pop()
                raise OSError(f"{where} failed at {index}")

        streamed = []

        def on_sample(sample):
            streamed.append(sample.start)
            fail_once(sample.start, "on_sample")

        run_point = functools.partial(
            injected_point,
            fail_at=at if site == "run_point" else None,
            exit_at=at if site == "exit" else None,
            parent=os.getpid(),
        )
        submit = ProcessPoolExecutor.submit
        submits = []

        def failing_submit(pool, *args, **kwargs):
            submits.append(1)
            if site == "submit" and len(submits) == at + 1:
                raise OSError("submit failed")
            return submit(pool, *args, **kwargs)

        with collecting() as registry, mock.patch.object(
            ProcessPoolExecutor, "submit", failing_submit
        ):
            collector = WindowedCollector(window=10, on_sample=on_sample)
            with windowing(collector=collector):
                try:
                    records = run_sweep(
                        grid,
                        run_point,
                        progress=lambda i, *_rest: fail_once(i, "progress"),
                        workers=workers,
                    )
                    error = None
                except OSError as raised:
                    error = raised
        assert len(streamed) == len(set(streamed)), streamed
        fallbacks = registry.snapshot()["counters"].get("sweep.serial_fallbacks", 0)
        if site in ("progress", "on_sample", "run_point"):
            assert error is not None and site in str(error)
            last = at if site == "on_sample" else at - 1
            assert streamed == list(range(last + 1))
            assert fallbacks == 0
        else:
            assert error is None
            assert records == serial
            assert streamed == list(range(self.POINTS))
            assert fallbacks == (1 if workers > 1 else 0)


def square_colliding(n):
    """Point runner that collides with its own parameter name."""
    return {"n": n}


class TestPivot:
    def test_single_series(self):
        records = [{"x": 1, "y": 10}, {"x": 2, "y": 20}]
        lines = pivot(records, "x", "y")
        assert lines == {"": [(1, 10), (2, 20)]}

    def test_multi_series(self):
        records = [
            {"x": 1, "y": 10, "policy": "lru"},
            {"x": 1, "y": 12, "policy": "lfu"},
            {"x": 2, "y": 8, "policy": "lru"},
        ]
        lines = pivot(records, "x", "y", series="policy")
        assert lines["lru"] == [(1, 10), (2, 8)]
        assert lines["lfu"] == [(1, 12)]

    def test_missing_key_raises(self):
        with pytest.raises(ExperimentError, match="missing"):
            pivot([{"x": 1}], "x", "y")
