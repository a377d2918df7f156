"""GraphChi workloads: connected components, PageRank, ALS.

The paper characterises CC/PR as allocating *many long-lived objects
with many references* (Sec. 5.2): the vertex graph lives in the old
generation for the whole run and its dense reference structure is what
makes Scan&Push and Bitmap Count heavy in MajorGC (Fig. 4b).  ALS is
the outlier: "it takes a very large matrix data as a single object,
which results in a huge copy".

The CC/PR graph is R-MAT (the paper uses scale 22; we use a scale
matched to the 1/256 heap scaling).  Every vertex is a ``Vertex``
instance pointing at a boxed value and an adjacency ``objArray`` whose
elements reference other vertices, plus a primitive edge-weight array —
the long-lived, pointer-rich old generation the paper describes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.units import KB
from repro.workloads.base import Workload
from repro.workloads.mutator import Handle, MutatorDriver
from repro.workloads.rmat import adjacency_lists, generate_rmat


class GraphWorkload(Workload):
    """Shared R-MAT graph construction and shard machinery."""

    framework = "graphchi"
    dataset = "R-MAT Scale 22"
    rmat_scale = 12
    edge_factor = 16
    max_degree = 64
    shards = 5
    shard_buffer_bytes = 256 * KB
    #: primitive edge-data chunks streamed per shard (GraphChi's
    #: sliding-window edge values are large primitive arrays).
    edge_chunks_per_shard = 12
    edge_chunk_bytes = 16 * KB
    messages_per_shard = 512
    iterations = 16
    #: iterations of per-vertex results kept alive (forces promotion
    #: pressure through survivor overflow, as real GraphChi runs show).
    history_iterations = 3
    #: shards of in-flight messages kept alive (cross-shard messaging):
    #: messages survive scavenges and get promoted, filling the old
    #: generation with short-lived junk -- the big-data GC pathology.
    message_windows = 4
    compute_seconds_per_iteration = 0.0006

    @property
    def n_vertices(self) -> int:
        return 1 << self.rmat_scale

    def setup(self, driver: MutatorDriver) -> None:
        heap = driver.heap
        edges = generate_rmat(self.rmat_scale, self.edge_factor,
                              seed=hash(self.name) & 0xFFFF)
        adjacency = adjacency_lists(edges, self.n_vertices,
                                    self.max_degree)

        self.vertex_table = driver.handle(
            driver.allocate("objArray", self.n_vertices).addr)
        # Pass 1: the vertices and their boxed values.
        for vertex_id in range(self.n_vertices):
            vertex = driver.allocate("Vertex")
            heap.array_store(self.vertex_table.addr, vertex_id,
                             vertex.addr)
            box = driver.allocate("Box")
            vertex_addr = heap.array_load(self.vertex_table.addr,
                                          vertex_id)
            heap.set_field(heap.object_at(vertex_addr), 0, box.addr)
        # Pass 2: adjacency arrays (references into the vertex table)
        # and primitive edge-weight arrays.
        for vertex_id in range(self.n_vertices):
            neighbors = adjacency.get(vertex_id, [])
            if not neighbors:
                continue
            adj = driver.allocate("objArray", len(neighbors))
            vertex_addr = heap.array_load(self.vertex_table.addr,
                                          vertex_id)
            heap.set_field(heap.object_at(vertex_addr), 1, adj.addr)
            weights = driver.allocate("typeArray", len(neighbors) * 8)
            # Weights hang off the value box to stay reachable.
            vertex_addr = heap.array_load(self.vertex_table.addr,
                                          vertex_id)
            box_addr = heap.get_field(heap.object_at(vertex_addr), 0)
            heap.set_field(heap.object_at(box_addr), 0, weights.addr)
            payload = driver.allocate("typeArray", 160)
            vertex_addr = heap.array_load(self.vertex_table.addr,
                                          vertex_id)
            heap.set_field(heap.object_at(vertex_addr), 2, payload.addr)
            vertex_addr = heap.array_load(self.vertex_table.addr,
                                          vertex_id)
            adj_addr = heap.get_field(heap.object_at(vertex_addr), 1)
            heap.store_refs(
                heap.array_slots(adj_addr, np.arange(len(neighbors))),
                heap.array_elements(self.vertex_table.addr, neighbors))
        self._message_windows = []
        # Result history ring: one objArray per remembered iteration.
        self.history = [
            driver.handle(driver.allocate(
                "objArray", self.n_vertices).addr)
            for _ in range(self.history_iterations)
        ]

    # -- per-iteration building blocks --------------------------------------

    def process_shards(self, driver: MutatorDriver,
                       touched_fraction: float) -> None:
        """Stream the shards: buffers plus update messages referencing
        vertices (the GraphChi sliding-window I/O pattern)."""
        heap = driver.heap
        step = max(1, int(1.0 / max(touched_fraction, 0.01)))
        for shard in range(self.shards):
            buffer_handle = driver.handle(driver.allocate(
                "typeArray", self.shard_buffer_bytes).addr)
            message_table = driver.handle(driver.allocate(
                "objArray", self.messages_per_shard).addr)
            base = shard * (self.n_vertices // self.shards)
            # The bulk of shard traffic is primitive edge data (the
            # sliding-window chunks); a smaller stream of Message
            # objects carries vertex-targeted updates and produces the
            # old-to-young card traffic.
            chunk_ring = driver.handle(driver.allocate(
                "objArray", self.edge_chunks_per_shard).addr)
            for chunk in range(self.edge_chunks_per_shard):
                data = driver.allocate("typeArray",
                                       self.edge_chunk_bytes)
                heap.array_store(chunk_ring.addr, chunk, data.addr)
            slots = np.arange(self.messages_per_shard)
            self._allocate_linked(driver, "Message", message_table,
                                  (base + slots * step) % self.n_vertices)
            # Messages and edge chunks stay in flight for a window of
            # shards (the sliding window), surviving scavenges and
            # feeding the premature-promotion churn real GraphChi runs
            # exhibit.
            self._message_windows.append(message_table)
            self._message_windows.append(chunk_ring)
            while len(self._message_windows) > 2 * self.message_windows:
                driver.release(self._message_windows.pop(0))
            driver.release(buffer_handle)

    def publish_results(self, driver: MutatorDriver, iteration: int,
                        fraction: float = 1.0) -> None:
        """Allocate fresh per-vertex results into the history ring.

        Stores into the (old) history array dirty cards, and keeping
        ``history_iterations`` of results alive drives promotions.
        """
        ring = self.history[iteration % self.history_iterations]
        count = int(self.n_vertices * fraction)
        self._allocate_linked(driver, "Record", ring, np.arange(count))

    def _allocate_linked(self, driver: MutatorDriver, klass_name: str,
                         table: Handle, vertex_ids: np.ndarray) -> None:
        """Allocate one ``klass_name`` object per entry of ``vertex_ids``,
        point its first reference field at that vertex and store object
        ``i`` into ``table[i]``.

        Byte- and trace-identical to the per-object loop (allocate, load
        the vertex, ``set_field``, ``array_store``), which still runs for
        single-object chunks; every larger GC-free allocation chunk does
        one vertex-table gather and one
        :meth:`~repro.heap.heap.JavaHeap.store_refs` whose pairs keep the
        loop's store order, so installed write hooks see the same calls.
        """
        heap = driver.heap
        field = heap.klasses.by_name(klass_name).reference_offsets()[0]
        stored = 0

        def sink(addrs: List[int]) -> None:
            nonlocal stored
            if len(addrs) == 1:
                # allocate_batch's per-object path (scalar kernels, step
                # hooks, a GC at the chunk edge): the plain loop body.
                target = heap.array_load(self.vertex_table.addr,
                                         int(vertex_ids[stored]))
                heap.store_ref(addrs[0] + field, target)
                heap.array_store(table.addr, stored, addrs[0])
                stored += 1
                return
            objects = np.asarray(addrs, dtype=np.int64)
            done = stored + len(addrs)
            slots = np.empty(2 * len(addrs), dtype=np.int64)
            targets = np.empty_like(slots)
            slots[0::2] = objects + field
            targets[0::2] = heap.array_elements(self.vertex_table.addr,
                                                vertex_ids[stored:done])
            slots[1::2] = heap.array_slots(table.addr,
                                           np.arange(stored, done))
            targets[1::2] = objects
            heap.store_refs(slots, targets)
            stored = done

        driver.allocate_batch(klass_name, len(vertex_ids), sink=sink)


class ConnectedComponents(GraphWorkload):
    """Label propagation: message-heavy, touching fewer vertices as the
    labels converge (Table 3: 4 GB heap)."""

    name = "graphchi-cc"
    messages_per_shard = 768
    iterations = 16

    def iteration(self, driver: MutatorDriver, index: int) -> None:
        # Convergence: later iterations touch fewer vertices.
        active = max(0.15, 1.0 - 0.12 * index)
        self.process_shards(driver, touched_fraction=active)
        self.publish_results(driver, index, fraction=active * 0.5)


class PageRank(GraphWorkload):
    """Power iteration: every vertex gets a fresh rank every iteration
    (Table 3: 4 GB heap)."""

    name = "graphchi-pr"
    messages_per_shard = 512
    history_iterations = 4
    iterations = 16

    def iteration(self, driver: MutatorDriver, index: int) -> None:
        self.process_shards(driver, touched_fraction=0.6)
        self.publish_results(driver, index, fraction=1.0)


class AlternatingLeastSquares(Workload):
    """ALS over a Matrix Market 15000x15000 matrix (Table 3: 4 GB heap).

    "ALS ... takes a very large matrix data as a single object, which
    results in a huge copy" (Sec. 3.2) — the ratings matrix and the
    per-iteration factor matrices are single multi-hundred-KB arrays,
    so nearly all GC time is bulk Copy.
    """

    name = "graphchi-als"
    framework = "graphchi"
    dataset = "Matrix Market (15000x15000)"
    iterations = 8
    ratings_bytes = 1280 * KB
    factor_bytes = 1024 * KB
    solver_temp_bytes = 128 * KB
    solver_temps = 8
    compute_seconds_per_iteration = 0.0008

    def setup(self, driver: MutatorDriver) -> None:
        heap = driver.heap
        self.holder = driver.handle(
            driver.allocate("objArray", 4).addr)
        ratings = driver.allocate("typeArray", self.ratings_bytes)
        heap.array_store(self.holder.addr, 0, ratings.addr)
        ratings_t = driver.allocate("typeArray", self.ratings_bytes)
        heap.array_store(self.holder.addr, 1, ratings_t.addr)

    def iteration(self, driver: MutatorDriver, index: int) -> None:
        heap = driver.heap
        # New factor matrices replace the previous iteration's (which
        # become garbage only after surviving at least one scavenge).
        users = driver.allocate("typeArray", self.factor_bytes)
        heap.array_store(self.holder.addr, 2, users.addr)
        items = driver.allocate("typeArray", self.factor_bytes)
        heap.array_store(self.holder.addr, 3, items.addr)
        for _ in range(self.solver_temps):
            temp = driver.handle(driver.allocate(
                "typeArray", self.solver_temp_bytes).addr)
            driver.release(temp)
