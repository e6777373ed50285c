"""Cooperative (peer) client caching.

The paper's related work reaches into cooperative web caching (Wolman
et al.) — when many clients sit near each other, a miss can often be
served from a *peer's* cache instead of the distant server.  This
module adds that tier to the replay engine so the interaction between
peer caching and grouping is measurable:

* peers absorb misses on *shared* files (libraries, utilities — the
  same multi-context files that motivate overlapping groups);
* grouping absorbs misses on *private sequential* files (a client's own
  task chains), which peers rarely hold.

The two mechanisms are therefore complementary, and
:func:`repro.experiments.extensions.run_peer_caching` quantifies how
much of each workload's miss stream each tier captures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..caching.lru import LRUCache
from ..core.grouping import GroupBuilder
from ..core.successors import SuccessorTracker
from ..errors import SimulationError
from ..traces.events import Trace


@dataclass
class PeerMetrics:
    """Where each demand access was served from."""

    local_hits: int = 0
    peer_hits: int = 0
    server_fetches: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses."""
        return self.local_hits + self.peer_hits + self.server_fetches

    @property
    def local_hit_rate(self) -> float:
        """Fraction served from the client's own cache."""
        return self.local_hits / self.accesses if self.accesses else 0.0

    @property
    def peer_hit_rate(self) -> float:
        """Fraction served from a peer's cache."""
        return self.peer_hits / self.accesses if self.accesses else 0.0

    @property
    def server_fetch_rate(self) -> float:
        """Fraction that had to go to the server."""
        return self.server_fetches / self.accesses if self.accesses else 0.0


class PeerNetwork:
    """A set of clients that can serve each other's misses.

    On a local miss the request is broadcast to peers (directory-less
    cooperative caching); a peer hit copies the file into the
    requester's cache at MRU *without* promoting it at the peer (the
    peer did not demand it).  Only peer misses reach the server, where
    the usual group machinery applies: the server tracks successions in
    the stream of requests it actually sees and ships best-effort
    groups.

    Parameters
    ----------
    client_capacity:
        Per-client LRU capacity (files).
    group_size:
        Server-side group size; 1 disables grouping.
    peer_sharing:
        Set False to disable the peer tier (every local miss goes to
        the server) — the control configuration.
    """

    def __init__(
        self,
        client_capacity: int,
        group_size: int = 1,
        peer_sharing: bool = True,
        successor_capacity: int = 8,
    ):
        if client_capacity <= 0:
            raise SimulationError(
                f"client_capacity must be positive, got {client_capacity}"
            )
        self.client_capacity = client_capacity
        self.group_size = group_size
        self.peer_sharing = peer_sharing
        self.clients: Dict[str, LRUCache] = {}
        self.tracker = SuccessorTracker(policy="lru", capacity=successor_capacity)
        self.builder = GroupBuilder(self.tracker, group_size)
        self.metrics = PeerMetrics()

    def _client(self, client_id: str) -> LRUCache:
        cache = self.clients.get(client_id)
        if cache is None:
            cache = LRUCache(self.client_capacity)
            self.clients[client_id] = cache
        return cache

    def _peer_lookup(self, requester: str, file_id: str) -> bool:
        """Probe every other client without disturbing their recency."""
        for client_id, cache in self.clients.items():
            if client_id != requester and cache.probe(file_id):
                return True
        return False

    def access(self, client_id: str, file_id: str) -> str:
        """One demand access; returns 'local', 'peer', or 'server'."""
        cache = self._client(client_id)
        if cache.access(file_id):
            self.metrics.local_hits += 1
            return "local"
        # cache.access admitted the file at MRU; now find its source.
        if self.peer_sharing and self._peer_lookup(client_id, file_id):
            self.metrics.peer_hits += 1
            return "peer"
        self.metrics.server_fetches += 1
        self.tracker.observe(file_id)
        if self.group_size > 1:
            group = self.builder.build(file_id)
            cache.install_group_at_tail(group.predicted)
        return "server"

    def replay(self, trace: Trace) -> PeerMetrics:
        """Drive the network with a trace (events carry client ids)."""
        for event in trace:
            self.access(event.client_id or "client00", event.file_id)
        return self.metrics
