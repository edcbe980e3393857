"""Batched multi-root reverse sampling: many RRR sets per vectorised pass.

The per-root path pays numpy dispatch overhead per frontier *per set*; here
one pass advances every active set one level.

- IC: the working state is a ``(set_slot, vertex)`` **pair frontier**
  encoded as flat keys ``slot * n + vertex``.  Each level repeats the
  frontier-pair index once per in-edge, and every per-edge array (CSR
  position, draw counter, stream key, pair-key offset) is one ``take``
  from a per-pair array through it.  One fused coin array covers every
  edge of every active set; each coin is the integer compare
  ``(x >> 11) < ceil(p * 2**53)`` against thresholds built once per
  sampler (exactly the float coin ``u < p``, see :mod:`repro.kernels.rng`),
  hashed in place.  Live, then unvisited, edges are picked with
  ``np.flatnonzero`` and ``take`` rather than boolean masks, which cost
  about 2.5 times as much per element at the ~50% densities seen here.  A
  sorted unique over pair keys deduplicates per set while producing
  exactly the canonical (slot-ascending, vertex-ascending) order the
  scalar reference consumes.  Visited tracking is a flat epoch-stamped
  array of ``batch_size * n`` cells reused across calls (memory is
  O(B·n), so IC passes stay small).
- LT: all active walks advance in lock step — one uniform per walk per
  level, a vectorised bisection over the per-row cumulative weights picks
  each walk's in-neighbour.  A walk can only revisit its own path, so each
  walk checks the step against its path so far (one row of an
  ``(active walks, steps)`` matrix) and LT needs no per-pass scratch.
  That lets thousands of walks share each pass; transient memory is
  O(pass size x walk length).

Both models end a pass with one sort of its pair keys, which leaves each
set's vertices strictly ascending: the layout every flat store keeps.

Per-set randomness comes from counter streams keyed by the *global* set
index (:mod:`repro.kernels.rng`), and each set's counter advances by
exactly the number of edges it examined at each level (one per step for an
LT walk) — the same schedule the scalar reference follows — so the
produced bytes are independent of batch size, batch boundaries, worker
count, and start method.
"""

from __future__ import annotations

import numpy as np

from repro._util import sorted_unique
from repro.diffusion.base import DiffusionModel
from repro.errors import ParameterError
from repro.kernels.rng import coin_thresholds, counter_uniforms, flip_coins

__all__ = ["BATCH_SIZE", "LT_BATCH_SIZE", "BatchedSampler", "sample_batched"]

#: IC sets per vectorised pass.  Output bytes never depend on it (see the
#: module docstring); it only trades scratch memory (``B * n`` stamps)
#: against per-pass dispatch overhead.  Larger IC passes do not pay: on the
#: edge-bound cell of ``benchmarks/bench_kernels.py`` (imm-ic's 1,600 sets)
#: 256 sets per pass is within noise of 64 and 1,024 is slower, while the
#: stamp grows 4x and 16x.
BATCH_SIZE = 64

#: LT walks per vectorised pass.  LT keeps no ``B * n`` scratch; the pass
#: only bounds the path matrix (pass size x walk length).  55,000 walks on
#: the amazon replica took 72, 35, 22 and 20 ms at 1,024, 4,096, 16,384 and
#: 32,768 walks per pass, all at a 2.5 MB peak: past 16,384 the gain is a
#: few ms, while a graph of long walks needs ever more transient memory.
LT_BATCH_SIZE = 1 << 14


class BatchedSampler:
    """Reusable batched kernel bound to one diffusion model.

    ``batch_size`` is the number of sets per vectorised pass; ``None``
    picks the model's default (:data:`BATCH_SIZE` for IC,
    :data:`LT_BATCH_SIZE` for LT).  Holds the IC ``B * n`` epoch-stamp
    scratch so repeated calls (the sampler's extend loop, a shard's
    streaming build) do not reallocate it.
    """

    def __init__(self, model: DiffusionModel, batch_size: int | None = None):
        kind = getattr(model, "name", "?")
        if kind not in ("IC", "LT"):
            raise ParameterError(f"kernel sampling supports IC/LT, not {kind!r}")
        if batch_size is None:
            batch_size = LT_BATCH_SIZE if kind == "LT" else BATCH_SIZE
        if batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        self.model = model
        self.batch_size = int(batch_size)
        self._n = model.graph.num_vertices
        self._stamp = np.zeros(0, dtype=np.int32)
        self._epoch = 0
        self._stop_at = _step_thresholds(model) if kind == "LT" else None
        self._thresh = (
            coin_thresholds(model.reverse_graph.probs) if kind == "IC" else None
        )
        self.levels = 0  # vectorised levels executed (across calls)
        self.collect_occupancy = False  # set by KernelSampler under telemetry
        self.occupancy: list[float] = []  # active fraction of a pass, per level

    # ------------------------------------------------------------- plumbing
    def _scratch(self, b: int) -> tuple[np.ndarray, int]:
        need = b * self._n
        if self._stamp.size < need:
            self._stamp = np.zeros(need, dtype=np.int32)
            self._epoch = 0
        elif self._epoch == np.iinfo(np.int32).max:
            # The next epoch would not fit the stamp: start the count over.
            self._stamp.fill(0)
            self._epoch = 0
        self._epoch += 1
        return self._stamp, self._epoch

    def sample(
        self, roots: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw one set per ``(root, key)`` pair, all in lock step.

        Returns CSR-style ``(flat_vertices int32, sizes int64, edges int64)``
        with set *i*'s vertices strictly ascending.
        """
        roots = np.asarray(roots, dtype=np.int64)
        keys = np.asarray(keys, dtype=np.uint64)
        if roots.size == 0:
            z = np.empty(0, dtype=np.int64)
            return np.empty(0, dtype=np.int32), z, z
        step = self.batch_size
        return _join([
            self._one_batch(roots[lo : lo + step], keys[lo : lo + step])
            for lo in range(0, roots.size, step)
        ])

    def _one_batch(self, roots, keys):
        if self.model.name == "IC":
            return self._ic_batch(roots, keys)
        return self._lt_batch(roots, keys)

    @staticmethod
    def _split(pairs: np.ndarray, b: int, n: int):
        """Distinct pair keys ``slot * n + vertex`` -> per-set CSR
        ``(flat, sizes)``, each set strictly ascending."""
        keys = np.sort(pairs)
        # Set i's keys are the run in [i * n, (i + 1) * n): locating the
        # runs and subtracting their bases is cheaper than ``% n`` and ``// n``.
        base = np.arange(b, dtype=np.int64) * n
        sizes = np.diff(np.searchsorted(keys, base + n), prepend=0)
        flat = (keys - np.repeat(base, sizes)).astype(np.int32)
        return flat, sizes

    # ------------------------------------------------------------------- IC
    def _ic_batch(self, roots, keys):
        n = self._n
        b = roots.size
        stamp, epoch = self._scratch(b)
        level0 = np.arange(b, dtype=np.int64) * n + roots
        stamp[level0] = epoch
        counters = np.zeros(b, dtype=np.uint64)
        edges = np.zeros(b, dtype=np.int64)
        pairs = [level0] + self._ic_levels(
            np.arange(b, dtype=np.int64), roots, keys, counters, edges,
            stamp, epoch, b,
        )
        flat, sizes = self._split(np.concatenate(pairs), b, n)
        return flat, sizes, edges

    def _ic_levels(self, fslot, fvert, keys, counters, edges, stamp, epoch, b):
        """Advance a pair frontier level by level until every set stops.

        ``fslot`` must be ascending with ``fvert`` ascending within each
        slot (the canonical order).  ``counters`` and ``edges`` are updated
        in place; returns the fresh pair keys of each level reached.
        """
        rev = self.model.reverse_graph
        n = self._n
        indptr, indices, thresh = rev.indptr, rev.indices, self._thresh
        slots = np.arange(b + 1)
        pairs: list[np.ndarray] = []
        while fslot.size:
            self.levels += 1
            if self.collect_occupancy:
                # fslot is sorted, so distinct runs count the active sets.
                self.occupancy.append(
                    (np.count_nonzero(np.diff(fslot)) + 1) / b
                )
            starts = indptr.take(fvert)
            lengths = indptr.take(fvert + 1)
            lengths -= starts
            # bounds[j]: where pair j's edges start in this level's arrays.
            bounds = np.zeros(fslot.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=bounds[1:])
            total = int(bounds[-1])
            if total == 0:
                break
            # fslot is sorted, so each set's edges form one run of the
            # level, and an edge draws its set's running counter plus its
            # position within that run.  (uint64 array arithmetic wraps
            # silently, as the streams want.)
            runs = bounds.take(np.searchsorted(fslot, slots))
            counts = np.diff(runs)
            shift = counters - runs[:-1].astype(np.uint64)
            # Every per-edge array is one take from a per-pair array through
            # the one repeat of the pair index.
            pair = np.repeat(np.arange(fslot.size), lengths)
            iota = np.arange(total)
            csr = (starts - bounds[:-1]).take(pair)
            csr += iota
            ctr = shift.take(fslot).take(pair)
            ctr += iota.view(np.uint64)
            live = np.flatnonzero(
                flip_coins(ctr, keys.take(fslot).take(pair), thresh.take(csr))
            )
            counters += counts.astype(np.uint64)
            edges += counts
            pk = (fslot * n).take(pair.take(live))
            pk += indices.take(csr.take(live))
            # Drop visited pairs first (cheap), then dedup what is left per
            # set in the canonical slot/vertex order.
            fresh = sorted_unique(pk.take(np.flatnonzero(stamp.take(pk) != epoch)))
            if fresh.size == 0:
                break
            stamp[fresh] = epoch
            pairs.append(fresh)
            fslot = fresh // n
            fvert = fresh - fslot * n
        return pairs

    def grow(
        self,
        members: tuple[np.ndarray, np.ndarray],
        frontier: tuple[np.ndarray, np.ndarray],
        keys: np.ndarray,
        counters: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Continue IC reverse BFS of existing sets from a new frontier.

        ``members`` and ``frontier`` are CSR ``(flat, sizes)`` per set: the
        vertices the set already holds (pre-visited, never re-added) and
        the vertices it newly reaches (disjoint from ``members``).  Set
        *i* draws coins from ``u(keys[i], counters[i]), ...`` in the same
        canonical order as :meth:`sample`, so the result does not depend
        on the batch size.  Returns the added vertices, frontier included,
        as CSR ``(flat int32, sizes int64)``, each set strictly ascending.
        """
        flat, sizes, _edges = self._grow(members, frontier, keys, counters)
        return flat, sizes

    def _grow(self, members, frontier, keys, counters):
        """:meth:`grow`, plus the edges each set examined (int64)."""
        if getattr(self.model, "name", "?") != "IC":
            raise ParameterError("grow is defined for the IC model only")
        m_flat, m_sizes = (np.asarray(a) for a in members)
        f_flat, f_sizes = (np.asarray(a) for a in frontier)
        keys = np.asarray(keys, dtype=np.uint64)
        counters = np.asarray(counters, dtype=np.uint64)
        m_off = np.concatenate(([0], np.cumsum(m_sizes)))
        f_off = np.concatenate(([0], np.cumsum(f_sizes)))
        n = self._n
        out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for lo in range(0, keys.size, self.batch_size):
            hi = min(lo + self.batch_size, keys.size)
            b = hi - lo
            stamp, epoch = self._scratch(b)
            slot = np.arange(b, dtype=np.int64)
            mv = m_flat[m_off[lo] : m_off[hi]].astype(np.int64)
            stamp[np.repeat(slot, m_sizes[lo:hi]) * n + mv] = epoch
            fv = f_flat[f_off[lo] : f_off[hi]].astype(np.int64)
            seed = sorted_unique(np.repeat(slot, f_sizes[lo:hi]) * n + fv)
            stamp[seed] = epoch
            fslot, fvert = np.divmod(seed, n)
            edges = np.zeros(b, dtype=np.int64)
            pairs = [seed] + self._ic_levels(
                fslot, fvert, keys[lo:hi], counters[lo:hi].copy(),
                edges, stamp, epoch, b,
            )
            flat, size = self._split(np.concatenate(pairs), b, n)
            out.append((flat, size, edges))
        if not out:
            z = np.empty(0, dtype=np.int64)
            return np.empty(0, dtype=np.int32), z, z
        return _join(out)

    # ------------------------------------------------------------------- LT
    def _lt_batch(self, roots, keys):
        """Advance every walk of the pass one step per level.

        ``path`` holds each active walk's vertices so far, one row per
        walk; a step onto the walk's own path closes a live-edge cycle and
        stops it.  Every walk still active at a level has drawn once per
        earlier level, so one counter serves the whole pass.
        """
        model = self.model
        rev = model.reverse_graph
        indptr, indices, cum = rev.indptr, rev.indices, model._cum
        stop_at = self._stop_at
        b = roots.size
        aslot = np.arange(b, dtype=np.int32)
        avert = roots.astype(np.int32)
        path = avert[:, None]
        slots, verts = [aslot], [avert]
        draw = 0
        while aslot.size:
            self.levels += 1
            if self.collect_occupancy:
                self.occupancy.append(aslot.size / b)
            # Walks at an in-degree-0 vertex stop too: the draw they would
            # not have made is discarded unread.
            r = counter_uniforms(keys[aslot], np.uint64(draw))
            draw += 1
            go = r < stop_at[avert]
            if not go.all():
                aslot, avert, r, path = aslot[go], avert[go], r[go], path[go]
            lo, hi = indptr[avert], indptr[avert + 1]
            u = indices[_vector_bisect_right(cum, lo, hi, r)]
            fresh = ~(path == u[:, None]).any(axis=1)
            if not fresh.all():
                aslot, u, path = aslot[fresh], u[fresh], path[fresh]
            path = np.concatenate((path, u[:, None]), axis=1)
            slots.append(aslot)
            verts.append(u)
            avert = u
        pairs = np.concatenate(slots).astype(np.int64) * self._n
        pairs += np.concatenate(verts)
        flat, sizes = self._split(pairs, b, self._n)
        return flat, sizes, sizes.copy()  # LT cost convention: path length


def _step_thresholds(model: DiffusionModel) -> np.ndarray:
    """Per vertex, the total LT in-weight a walk's uniform must fall below
    to take a step (``-1`` with no in-edges, so it never does)."""
    indptr = model.reverse_graph.indptr
    has = indptr[1:] > indptr[:-1]
    out = np.full(model.graph.num_vertices, -1.0)
    out[has] = model._cum[indptr[1:][has] - 1]
    return out


def _join(passes: list[tuple[np.ndarray, np.ndarray, np.ndarray]]):
    """Concatenate per-pass CSR ``(flat, sizes, edges)`` triples."""
    if len(passes) == 1:
        return passes[0]
    return tuple(np.concatenate(column) for column in zip(*passes))


def _vector_bisect_right(
    cum: np.ndarray, lo: np.ndarray, hi: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Per-lane ``lo + searchsorted(cum[lo:hi], r, side="right")``.

    Bisection over all lanes at once: finds the first index in ``[lo, hi)``
    whose cumulative weight exceeds ``r``.  Callers guarantee
    ``r < cum[hi - 1]``, so the answer exists in-range for every lane.
    """
    left = lo.copy()
    right = hi.copy()
    top = cum.size - 1
    while True:
        active = left < right
        if not active.any():
            return left
        mid = np.minimum((left + right) >> 1, top)
        le = cum[mid] <= r
        step = active & le
        left = np.where(step, mid + 1, left)
        right = np.where(active & ~le, mid, right)


def sample_batched(
    model: DiffusionModel,
    roots: np.ndarray,
    keys: np.ndarray,
    *,
    batch_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-shot convenience wrapper around :class:`BatchedSampler`."""
    return BatchedSampler(model, batch_size).sample(roots, keys)
