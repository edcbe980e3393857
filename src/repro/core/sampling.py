"""``Generate_RRRsets``: the sampling kernel, fused and unfused.

Both frameworks draw theta RRR sets by probabilistic reverse BFS/walks from
uniform roots; they differ in everything around that:

===========================  ========================  =====================
aspect                       Ripples                   EfficientIMM
===========================  ========================  =====================
per-set post-processing      sort each set             none (adaptive store)
counter updates              separate later kernel     **fused** (Alg. 3)
work distribution            static theta/p blocks     dynamic chunked queue
set placement                gathered to one store     stays worker-local
===========================  ========================  =====================

The sampler executes the real sampling work serially (one host core) and
keeps one record of it: the edges each set examined
(:attr:`RRRSampler.per_set_edges`), which with the set sizes
:meth:`RRRSampler.costs` prices under either framework's rules.  The
simulated machine schedules those costs over its emulated threads, statically
for Ripples and dynamically for EfficientIMM
(:meth:`~repro.simmachine.cost.CostModel.sampling_time_s`); the sampler
itself charges no thread.  Memory-footprint accounting is analytic
(:func:`modelled_store_bytes`) so the Twitter7 OOM experiment does not need
to materialise per-set objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.diffusion.base import DiffusionModel
from repro.errors import OutOfMemoryModelError, ParameterError
from repro.kernels import KernelSampler
from repro.sketch.rrr import AdaptivePolicy
from repro.sketch.store import FlatRRRStore

__all__ = ["RRRSampler", "modelled_store_bytes"]


def modelled_store_bytes(
    sizes: np.ndarray,
    num_vertices: int,
    policy: AdaptivePolicy | None,
) -> int:
    """Footprint of storing sets of the given sizes.

    ``policy=None`` models Ripples (every set a 4-byte-per-entry sorted
    vector); an :class:`AdaptivePolicy` models EfficientIMM (4-byte lists
    below the threshold, ``n/8``-byte bitmaps above).
    """
    s = np.asarray(sizes, dtype=np.int64)
    list_bytes = 4 * s
    if policy is None:
        return int(list_bytes.sum())
    bitmap_bytes = (num_vertices + 7) // 8
    thr = policy.threshold(num_vertices)
    return int(np.where(s > thr, bitmap_bytes, list_bytes).sum())


def charge_per_set(
    edges: np.ndarray,
    sizes: np.ndarray,
    num_vertices: int,
    adaptive_policy: AdaptivePolicy | None,
    *,
    fused: bool,
) -> np.ndarray:
    """Per-set generation cost under a framework's representation rules.

    Prices sets from the charge-independent primitives (edges examined,
    set size), so one sampling pass can be priced for both frameworks
    without re-drawing the sets (:meth:`RRRSampler.costs`).  Every set is
    charged its traversal loads (edges examined) plus the writes of its
    entries, plus the representation cost: Ripples sorts every set
    (s log s); EfficientIMM sorts only the small sets and builds a bitmap
    (O(s)) for dense ones (§IV-C).  A fused sampler adds one counter update
    per entry.
    """
    edges = np.asarray(edges, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    cost = edges + sizes
    logs = np.log2(np.maximum(sizes, 2.0))
    if adaptive_policy is None:
        cost = cost + np.where(sizes > 1, sizes * logs, 0.0)
    else:
        thr = adaptive_policy.threshold(num_vertices)
        rep = np.where(sizes > thr, sizes, sizes * logs)
        cost = cost + np.where(sizes > 1, rep, 0.0)
    if fused:
        cost = cost + sizes
    return cost


@dataclass
class SamplingConfig:
    """How the sampler behaves; the two presets mirror the frameworks."""

    fused: bool = True  # EfficientIMM: update counter as sets are produced
    adaptive_policy: AdaptivePolicy | None = None  # None = all sorted lists
    memory_budget_bytes: int | None = None

    @classmethod
    def ripples(cls, **kw) -> "SamplingConfig":
        return cls(fused=False, adaptive_policy=None, **kw)

    @classmethod
    def efficientimm(cls, **kw) -> "SamplingConfig":
        kw.setdefault("adaptive_policy", AdaptivePolicy())
        return cls(fused=True, **kw)


class RRRSampler:
    """Incrementally grows a store of RRR sets (IMM asks for more each level).

    The physical store is always a :class:`FlatRRRStore`; representation
    choices (sorted vs adaptive) affect the sort work charged, the membership
    structures used at selection, and the modelled memory footprint.

    Set *i* (global store index) is drawn by :mod:`repro.kernels` from the
    counter stream keyed by ``(seed, i)``, so growing the store in any
    number of calls of any size yields the same bytes — which also makes
    checkpoint resume (store length = next index) exact.
    """

    def __init__(self, model: DiffusionModel, config: SamplingConfig, *, seed=0):
        if not isinstance(seed, (int, np.integer)):
            raise ParameterError(
                "the sampler needs an integer seed: its counter streams "
                "are keyed by (seed, set_index)"
            )
        self.model = model
        self.config = config
        self.seed = int(seed)
        self._kernel = KernelSampler(model)
        n = model.graph.num_vertices
        # The physical layout always keeps sets internally sorted so both
        # selection kernels can binary-search them; what differs between the
        # frameworks is the *charged* post-processing cost (below).
        self.store = FlatRRRStore(n)
        self.counter = np.zeros(n, dtype=np.int64)  # fused global counter
        # Edges examined per stored set: with the set sizes, the only
        # record of per-set work (:meth:`costs` prices it).
        self.per_set_edges = np.zeros(0, dtype=np.int64)

    # ---------------------------------------------------------------- main
    def extend(self, target_count: int) -> None:
        """Generate sets until the store holds ``target_count`` of them.

        Each kernel batch is bulk-appended to the store as it is drawn, so
        the extend never holds its new sets twice, and the edges each set
        examined join :attr:`per_set_edges`; the work is priced later, by
        :meth:`costs`.
        """
        start = len(self.store)
        count = target_count - start
        if count <= 0:
            return
        n = self.model.graph.num_vertices
        tel = telemetry.get()
        t0 = time.perf_counter() if tel.enabled else 0.0
        entries0 = self.store.total_entries
        all_edges: list[np.ndarray] = []
        for flat, sizes, edges in self._kernel.stream_indexed(
            self.seed, start, count
        ):
            self.store.append_csr(flat, sizes)
            all_edges.append(edges)
        edges = np.concatenate(all_edges)
        if self.config.fused:
            # Fused update (Alg. 3): one bincount over the appended entries.
            added = self.store.vertices[entries0:]
            self.counter += np.bincount(added, minlength=n).astype(np.int64)
        self.per_set_edges = np.concatenate((self.per_set_edges, edges))
        self._check_budget()
        if tel.enabled:
            elapsed = time.perf_counter() - t0
            self._record_telemetry(
                tel, self.store.sizes()[start:], int(edges.sum()), elapsed
            )

    def _record_telemetry(
        self, tel, new_sizes: np.ndarray, new_edges: int, elapsed: float
    ) -> None:
        """Unified sampling metrics (docs/observability.md, `sampling.*`)."""
        reg = tel.registry
        reg.counter("sampling.rrr_sets").inc(new_sizes.size)
        reg.counter("sampling.edges_examined").inc(new_edges)
        if self.config.fused:
            reg.counter("sampling.atomic_updates").inc(int(new_sizes.sum()))
        reg.histogram("sampling.set_size").observe_many(new_sizes)
        if elapsed > 0:
            reg.gauge("sampling.rrr_sets_per_sec").set(new_sizes.size / elapsed)
        reg.gauge("sketch.store.sets").set(len(self.store))
        reg.gauge("sketch.store.entries").set(self.store.total_entries)
        reg.gauge("sketch.store.bytes").set(self.modelled_bytes())

    def _check_budget(self) -> None:
        cfg = self.config
        if cfg.memory_budget_bytes is None:
            return
        used = self.modelled_bytes()
        if used > cfg.memory_budget_bytes:
            raise OutOfMemoryModelError(used, cfg.memory_budget_bytes)

    # ------------------------------------------------------------ accessors
    def costs(self, config: SamplingConfig | None = None) -> np.ndarray:
        """Per-set generation cost of every stored set, priced under this
        sampler's rules or another framework's ``config`` (e.g.
        :meth:`SamplingConfig.ripples`): the sets are re-priced, not
        re-drawn."""
        cfg = self.config if config is None else config
        return charge_per_set(
            self.per_set_edges, self.store.sizes(), self.store.num_vertices,
            cfg.adaptive_policy, fused=cfg.fused,
        )

    def modelled_bytes(self) -> int:
        """Footprint of the sets under this config's representation."""
        return modelled_store_bytes(
            self.store.sizes(),
            self.store.num_vertices,
            self.config.adaptive_policy,
        )

    def reset_counter(self) -> None:
        """Zero the fused counter (IMM discards estimation-phase state)."""
        self.counter[:] = 0

    def rebuild_counter(self) -> None:
        """Recompute the fused counter from the current store contents."""
        self.counter = self.store.vertex_counts()
