"""Tests for the progress-callback contract of sweeps and replays.

The sweep runner and the replay engine both call ``progress(index,
total, params, elapsed)`` directly; a callback must accept all four
arguments.
"""

import pytest

from repro.sim.sweep import SweepGrid, run_sweep


class TestDriverIntegration:
    def test_sweep_rejects_too_narrow_callback(self):
        grid = SweepGrid().add_axis("n", [1])
        with pytest.raises(TypeError):
            run_sweep(grid, lambda n: {"out": n}, progress=lambda i: None)

    def test_unwindowed_replay_notifies_once(self):
        from repro.sim.engine import DistributedFileSystem
        from repro.workloads.synthetic import make_workload

        seen = []
        DistributedFileSystem(client_capacity=100).replay(
            make_workload("server", 500, seed=7),
            progress=lambda i, t, p, e: seen.append((i, t, p)),
        )
        assert seen == [(0, 1, {"window": 0, "start": 0})]
