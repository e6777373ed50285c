"""Building a custom workload and system topology from the substrate.

Shows the library as a toolkit rather than a fixed reproduction:

1. compose a bespoke workload — a nightly-build server — from raw
   activities and sessions (no preset spec);
2. replay it through a full client/server/store topology with the
   :class:`repro.sim.DistributedFileSystem` facade;
3. inspect the dynamic groups the server would construct, and the
   relationship graph's covering group set (paper Section 2.1).

Run with::

    python examples/custom_workload.py
"""

import random

from repro import DistributedFileSystem, RelationshipGraph
from repro.core.grouping import GroupBuilder
from repro.core.successors import SuccessorTracker
from repro.workloads import (
    ClientSession,
    Interleaver,
    MarkovActivity,
    ScriptedActivity,
    SessionConfig,
    make_file_names,
)

EVENTS = 25_000


def build_nightly_build_workload():
    """Two build pipelines plus an interactive admin session."""
    compile_chain = ScriptedActivity(
        "build/app",
        make_file_names("src/app", 45),
        ephemeral_slots=[7, 19, 33],  # object files: fresh every build
        write_slots=[44],  # the linked binary
        loop_probability=0.05,  # flaky-test rerun loops
    )
    test_chain = ScriptedActivity(
        "build/tests",
        make_file_names("src/tests", 30),
        write_slots=[28, 29],
    )
    admin = MarkovActivity(
        "admin/browse",
        make_file_names("etc/configs", 25),
        stability=0.6,
        rng=random.Random(7),
    )
    build_bot = ClientSession(
        "build-bot",
        [compile_chain, test_chain],
        SessionConfig(burst_mean=120.0, shared_utilities=("bin/make", "bin/cc")),
    )
    operator = ClientSession(
        "operator",
        [admin],
        SessionConfig(burst_mean=25.0, shared_probability=0.2,
                      shared_utilities=("bin/vi",)),
    )
    interleaver = Interleaver([build_bot, operator], run_mean=15.0)
    return interleaver.generate(EVENTS, random.Random(42), name="nightly-build")


def main():
    trace = build_nightly_build_workload()
    print(f"workload: {trace.name}, {len(trace)} events, "
          f"{trace.unique_files()} files, clients: "
          f"{sorted({e.client_id for e in trace})}")

    # Full topology: per-client caches, a server cache, backing store.
    system = DistributedFileSystem(
        client_capacity=60,
        server_capacity=250,
        group_size=5,
    )
    metrics = system.replay(trace)
    print("\ntopology results:")
    print(f"  mean client hit rate : {metrics.mean_client_hit_rate:.1%}")
    for client, stats in sorted(metrics.client_stats.items()):
        print(f"    {client:10s} hits={stats.hits:6d} misses={stats.misses:6d}")
    print(f"  server cache hit rate: {metrics.server_stats.hit_rate:.1%}")
    print(f"  store fetches        : {metrics.store_fetches}")
    print(f"  remote requests      : {metrics.remote_requests}")
    print(f"  metadata entries     : {metrics.metadata_entries}")

    # Peek at the groups the server would ship for a few hot files.
    tracker = SuccessorTracker(capacity=8)
    tracker.observe_sequence(trace.file_ids())
    builder = GroupBuilder(tracker, 5)
    print("\nsample dynamic groups:")
    for seed in ("src/app/f0000", "src/tests/f0000", "bin/make"):
        group = builder.build(seed)
        print(f"  {seed} -> {list(group.predicted)}")

    # The covering group set over the whole relationship graph.
    graph = RelationshipGraph.from_sequence(trace.file_ids()[:5000])
    groups = graph.covering_groups(5)
    overlapping = sum(
        1
        for group in groups
        if any(member in other for other in groups if other is not group
               for member in group)
    )
    print(f"\ncovering set: {len(groups)} groups over "
          f"{len(graph.nodes())} files ({overlapping} share members — "
          f"overlap is allowed by design)")


if __name__ == "__main__":
    main()
