"""Incremental RRR-sketch maintenance over a :class:`DeltaGraph`.

The whole design rests on one property of reverse influence sampling: a
reverse BFS/walk only ever examines an in-edge ``(u, v)`` *after visiting
its destination* ``v``.  An RRR set that does not contain ``v`` therefore
never looked at that edge — its realised trajectory is identical under the
old and new graph, and the set can be kept verbatim.  That is the
provenance rule, and it is what keeps a small update batch from
invalidating the whole sketch.  Each commit asks the store once
(:meth:`FlatRRRStore.membership_pairs`, one scan of its entries) which
sets hold any updated endpoint, and cuts both repairs' work from the
answer.

Per update kind (IC, ``repair="extend"``, the default):

- **delete / reweight** of ``(u, v)``: every set containing ``v`` may have
  realised a coin the new graph contradicts, so those sets are *resampled*
  from their original roots through the sampling kernel.
- **insert** of ``(u, v)`` with probability ``p``: sets containing ``v``
  are *extended* instead of resampled — the new edge's coin was simply
  never flipped, so we flip it now (probability ``p``) and, on success,
  continue the reverse BFS from ``u`` with the existing members pre-seeded
  as visited.  Edges of already-visited vertices keep their realised
  outcomes; edges of newly reached vertices get fresh coins, including
  other edges inserted in the same batch.  This deferred-decision coupling
  is distribution-exact and turns the dominant update kind of a growing
  graph into cheap repairs that do **not** count against the resample
  budget.  All extended sets advance together through the kernel's
  batched level loop (:meth:`KernelSampler.grow
  <repro.kernels.dispatch.KernelSampler.grow>`).

``repair="resample"`` (and the LT model always, since any in-row change
reshapes a vertex's whole walk distribution) skips the extension path and
resamples every set containing the destination of *any* update.

Resampling keeps each set's original root (roots are uniform draws,
independent of the graph).  Resampled and extended sets stay in CSR form
``(flat, sizes)`` from the kernel to the store, which splices them in
with one checked :meth:`FlatRRRStore.replace_sets` call (no per-set
Python), and the fused selection counter is patched with ``bincount``
passes (subtract old members, add new) rather than rebuilt — the dynamic
analogue of EfficientIMM's fused counter updates.  When the invalidated fraction
exceeds ``full_resample_threshold`` the maintainer falls back to a full
resample of the sketch (fresh roots), which is cheaper than patching
almost everything.

Statistical note (docs/dynamic.md): keeping the sets that provably did not
observe a structural change conditions them on that event; the resampled
sets are fresh unconditional draws.  The repaired sketch is therefore not
a perfectly i.i.d. sample of the new graph's RRR distribution — the
deviation only affects the correlation between membership of the updated
endpoints and the rest of each set, and the ``bench_dynamic.py`` quality
gate bounds its effect on seed quality (spread within tolerance of a full
recompute).  The insert extension path carries no such caveat.

Every draw goes through the counter-stream kernels (:mod:`repro.kernels`),
keyed by ``(seed, domain, epoch, set_index)`` with separate domains for
fresh roots, resample coins and extension coins.  A replayed update
stream is therefore byte-identical without carrying any RNG state, and
per-epoch keying keeps redraws of the same set index at different epochs
independent.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.core.selection import SelectionResult, efficient_select
from repro.diffusion.base import get_model
from repro.errors import ArtifactError, ParameterError
from repro.kernels import KernelSampler
from repro.kernels.rng import (
    DOMAIN_EXTEND,
    DOMAIN_RESAMPLE,
    DOMAIN_ROOT,
    counter_uniforms,
    derive_key,
    derive_keys,
)
from repro.resilience.checkpoint import _check_field, _is_int
from repro.sketch.store import FlatRRRStore, gather_rows

from repro.dynamic.delta import CommitInfo, DeltaGraph

__all__ = ["IncrementalMaintainer", "RepairReport"]

#: Version of the dynamic checkpoint metadata layered on the artifact schema.
#: Version 2 holds only counter-keyed sets and no RNG state; a version-1
#: checkpoint is refused rather than resumed into a mixed stream.
DYNAMIC_CHECKPOINT_VERSION = 2

_REPAIR_MODES = ("extend", "resample")


@dataclass(frozen=True)
class RepairReport:
    """What one :meth:`IncrementalMaintainer.apply` call did."""

    epoch: int
    mode: str  # "repair" | "full"
    num_sets: int
    invalidated: int  # sets that had to be resampled
    extended: int  # sets repaired by the insert extension path
    invalidated_fraction: float
    added_vertices: int  # entries appended by extensions
    inserted: int
    deleted: int
    reweighted: int
    ignored: int
    elapsed_s: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "mode": self.mode,
            "num_sets": self.num_sets,
            "invalidated": self.invalidated,
            "extended": self.extended,
            "invalidated_fraction": self.invalidated_fraction,
            "added_vertices": self.added_vertices,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "reweighted": self.reweighted,
            "ignored": self.ignored,
            "elapsed_s": self.elapsed_s,
        }


def _none_extended() -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """:meth:`IncrementalMaintainer._extend_sets`' answer when no set grows:
    ``(indices, flat, sizes, vertices added)``."""
    rows = np.empty(0, dtype=np.int64)
    return rows, np.empty(0, dtype=np.int32), rows, 0


class IncrementalMaintainer:
    """Keeps one RRR sketch (store + fused counter + roots) current with a
    :class:`DeltaGraph`, one committed epoch at a time."""

    def __init__(
        self,
        delta: DeltaGraph,
        *,
        model: str = "IC",
        num_sets: int = 1000,
        seed: int = 0,
        full_resample_threshold: float = 0.25,
        repair: str = "extend",
        build: bool = True,
    ):
        if num_sets < 1:
            raise ParameterError(f"num_sets must be >= 1, got {num_sets}")
        if not (0.0 < full_resample_threshold <= 1.0):
            raise ParameterError(
                "full_resample_threshold must lie in (0, 1], got "
                f"{full_resample_threshold}"
            )
        if repair not in _REPAIR_MODES:
            raise ParameterError(
                f"repair must be one of {_REPAIR_MODES}, got {repair!r}"
            )
        if delta.num_vertices == 0:
            raise ParameterError("cannot maintain a sketch of an empty graph")
        self.delta = delta
        self.model_name = str(model).upper()
        self.num_sets = int(num_sets)
        self.seed = int(seed)
        self.full_resample_threshold = float(full_resample_threshold)
        self.repair = repair
        self.store = FlatRRRStore(delta.num_vertices)
        self.roots = np.empty(self.num_sets, dtype=np.int64)
        self.counter = np.zeros(delta.num_vertices, dtype=np.int64)
        self.epoch = -1  # no sketch yet
        if build:
            self._build_full()

    # ------------------------------------------------------------- building
    def _keys(self, domain: int, epoch: int, indices: np.ndarray) -> np.ndarray:
        """Per-set stream keys of one draw domain at one epoch."""
        return derive_keys(derive_key(self.seed, domain, epoch), indices)

    def _build_full(self) -> None:
        """(Re)build the whole sketch against the current delta epoch, with
        fresh roots from the ``(seed, root-domain, epoch)`` stream, one
        kernel batch at a time."""
        model = get_model(self.model_name, self.delta.compact())
        n = self.delta.num_vertices
        epoch = self.delta.epoch
        indices = np.arange(self.num_sets, dtype=np.int64)
        u = counter_uniforms(derive_key(self.seed, DOMAIN_ROOT, epoch), indices)
        self.roots = np.clip((u * n).astype(np.int64), 0, n - 1)
        keys = self._keys(DOMAIN_RESAMPLE, epoch, indices)
        store = FlatRRRStore(n)
        for flat, sizes, _ in KernelSampler(model).stream(self.roots, keys):
            store.append_csr(flat, sizes)
        self.store = store.trim()
        self.counter = self.store.vertex_counts()
        self.epoch = epoch

    # -------------------------------------------------------------- repairs
    def apply(self, commit: CommitInfo) -> RepairReport:
        """Bring the sketch from epoch ``commit.epoch - 1`` to
        ``commit.epoch``; returns a :class:`RepairReport`.

        Commits must be applied in order — a gap means some epoch's changes
        would silently go unrepaired, so it raises :class:`ParameterError`.
        """
        if commit.epoch != self.epoch + 1:
            raise ParameterError(
                f"commit epoch {commit.epoch} does not follow sketch epoch "
                f"{self.epoch}; apply commits in order"
            )
        if self.delta.epoch < commit.epoch:
            raise ParameterError(
                f"delta graph is at epoch {self.delta.epoch}; commit the "
                "batch before applying it to the sketch"
            )
        tel = telemetry.get()
        t0 = time.perf_counter()

        use_extension = self.repair == "extend" and self.model_name == "IC"
        if use_extension:
            structural, ext_edges = commit.structural_dsts(), commit.inserted
        else:  # every destination invalidates, the inserted ones included
            structural, ext_edges = commit.all_dsts(), commit.inserted[:0]
        ext_edges = ext_edges.astype(np.int64)
        # One store scan answers every endpoint the commit asks about:
        # structural destinations, then the destinations and sources of the
        # inserted edges to extend by.
        pair_sets, pair_at = self.store.membership_pairs(
            np.concatenate([structural, ext_edges[:, 1], ext_edges[:, 0]])
        )
        hit = pair_at < structural.size
        invalidated = np.unique(pair_sets[hit])
        ext_pairs = (pair_sets[~hit], pair_at[~hit] - structural.size)
        fraction = invalidated.size / self.num_sets

        with tel.span(
            "dynamic.apply", epoch=commit.epoch, invalidated=int(invalidated.size)
        ):
            if fraction > self.full_resample_threshold:
                self._build_full()
                mode = "full"
                extended_sets = 0
                added = 0
                invalidated_count = self.num_sets
            else:
                sampler = KernelSampler(
                    get_model(self.model_name, self.delta.compact())
                )
                # Both repairs read the store before either writes it, so
                # the store is spliced once, in set order.
                ext_idx, ext_flat, ext_sizes, added = (
                    self._extend_sets(sampler, commit, ext_pairs, invalidated)
                    if ext_edges.shape[0]
                    else _none_extended()
                )
                flat, sizes = self._resample_sets(
                    sampler, invalidated, commit.epoch
                )
                idx = np.concatenate([invalidated, ext_idx])
                offsets = np.zeros(idx.size + 1, dtype=np.int64)
                np.cumsum(np.concatenate([sizes, ext_sizes]), out=offsets[1:])
                order = np.argsort(idx, kind="stable")
                self.store.replace_sets(
                    idx[order],
                    *gather_rows(offsets, np.concatenate([flat, ext_flat]), order),
                )
                extended_sets = int(ext_idx.size)
                mode = "repair"
                invalidated_count = int(invalidated.size)
                self.epoch = commit.epoch

        elapsed = time.perf_counter() - t0
        report = RepairReport(
            epoch=commit.epoch,
            mode=mode,
            num_sets=self.num_sets,
            invalidated=invalidated_count,
            extended=extended_sets,
            invalidated_fraction=float(fraction),
            added_vertices=added,
            inserted=int(commit.inserted.shape[0]),
            deleted=int(commit.deleted.shape[0]),
            reweighted=int(commit.reweighted.shape[0]),
            ignored=commit.ignored,
            elapsed_s=elapsed,
        )
        self._record_telemetry(report)
        return report

    def _resample_sets(
        self, sampler: KernelSampler, indices: np.ndarray, epoch: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Redraw the given sets from their original roots on the current
        graph; returns the kernel's CSR ``(flat, sizes)`` of the new sets
        and patches the fused counter."""
        if indices.size == 0:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
        n = self.delta.num_vertices
        old = gather_rows(self.store.offsets, self.store.vertices, indices)[0]
        keys = self._keys(DOMAIN_RESAMPLE, epoch, indices)
        flats, sizes, _ = zip(*sampler.stream(self.roots[indices], keys))
        flat = np.concatenate(flats)
        self.counter += np.bincount(flat, minlength=n)
        self.counter -= np.bincount(old, minlength=n)
        return flat, np.concatenate(sizes)

    def _extend_sets(
        self,
        sampler: KernelSampler,
        commit: CommitInfo,
        pairs: tuple[np.ndarray, np.ndarray],
        exclude: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Couple inserted edges into the surviving sets (IC only).

        ``pairs`` are the store's membership pairs ``(sets, at)`` of the
        inserted edges' destinations (``at`` is the edge), then of their
        sources (``at`` is the edge plus the number of inserted edges).
        For each set containing an inserted edge's destination but not its
        source (and not being resampled, ``exclude``), flip the edge's coin;
        the sets with a live coin continue their reverse BFS from the live
        sources, all at once through :meth:`KernelSampler.grow
        <repro.kernels.dispatch.KernelSampler.grow>`.  Set *i*'s coins come
        from the ``(seed, extend-domain, epoch, i)`` stream: first one per
        candidate edge in insertion order, then the BFS edges.  Returns
        ``(indices, flat, sizes, vertices added)``, the grown sets in CSR
        form, and patches the fused counter.
        """
        n = self.delta.num_vertices
        ins_src = commit.inserted[:, 0].astype(np.int64)
        num_ins = ins_src.size

        # Candidate (set, edge) pairs, set-major then insertion order.
        pair_sets, pair_at = pairs
        pair_keys = pair_sets * num_ins + pair_at % num_ins
        at_dst = pair_at < num_ins
        cand = pair_keys[at_dst]
        cand = cand[~np.isin(cand, pair_keys[~at_dst])]
        cand_set, cand_edge = np.divmod(np.sort(cand), num_ins)
        keep = ~np.isin(cand_set, exclude)
        cand_set, cand_edge = cand_set[keep], cand_edge[keep]
        if cand_set.size == 0:
            return _none_extended()
        sets, first, counts = np.unique(
            cand_set, return_index=True, return_counts=True
        )
        keys = self._keys(DOMAIN_EXTEND, commit.epoch, sets)
        slot = np.repeat(np.arange(sets.size), counts)
        within = np.arange(cand_set.size) - first[slot]
        live = counter_uniforms(keys[slot], within) < (
            commit.inserted_probs[cand_edge]
        )
        frontier = np.unique(slot[live] * n + ins_src[cand_edge[live]])
        if frontier.size == 0:
            return _none_extended()
        f_slot, f_vert = np.divmod(frontier, n)
        grown, f_sizes = np.unique(f_slot, return_counts=True)
        members, m_sizes = gather_rows(
            self.store.offsets, self.store.vertices, sets[grown]
        )
        added, a_sizes = sampler.grow(
            (members, m_sizes),
            (f_vert, f_sizes),
            keys[grown],
            counts[grown].astype(np.uint64),
        )
        self.counter += np.bincount(added, minlength=n)
        # A grown set is its members and its added vertices (disjoint, each
        # ascending), merged by one sort of row-keyed entries.
        sizes = m_sizes + a_sizes
        base = np.arange(grown.size, dtype=np.int64) * n
        merged = np.sort(
            np.concatenate([
                np.repeat(base, m_sizes) + members,
                np.repeat(base, a_sizes) + added,
            ])
        )
        flat = (merged - np.repeat(base, sizes)).astype(np.int32)
        return sets[grown], flat, sizes, int(added.size)

    def _record_telemetry(self, report: RepairReport) -> None:
        tel = telemetry.get()
        if not tel.enabled:
            return
        reg = tel.registry
        reg.counter("dynamic.commits").inc()
        if report.mode == "full":
            reg.counter("dynamic.full_resamples").inc()
            reg.histogram("dynamic.full_resample_s").observe(report.elapsed_s)
        else:
            reg.counter("dynamic.repairs").inc()
            reg.histogram("dynamic.repair_s").observe(report.elapsed_s)
        reg.counter("dynamic.sets_resampled").inc(report.invalidated)
        reg.counter("dynamic.sets_extended").inc(report.extended)
        reg.counter("dynamic.updates.inserted").inc(report.inserted)
        reg.counter("dynamic.updates.deleted").inc(report.deleted)
        reg.counter("dynamic.updates.reweighted").inc(report.reweighted)
        reg.counter("dynamic.updates.ignored").inc(report.ignored)
        reg.gauge("dynamic.invalidated_fraction").set(
            report.invalidated_fraction
        )
        reg.gauge("dynamic.epoch").set(report.epoch)

    # ------------------------------------------------------------- selection
    def select(self, k: int, num_threads: int = 1) -> SelectionResult:
        """Greedy seed selection on the current sketch, warm-started from
        the maintained fused counter."""
        return efficient_select(
            self.store, k, num_threads, initial_counter=self.counter
        )

    # ----------------------------------------------------------- checkpoints
    def checkpoint_key(self) -> str:
        """Fingerprint of this maintainer's *configuration* (not its state):
        base graph + model + sketch shape + seed + repair policy.  Two
        maintainers share a key iff replaying the same update stream yields
        identical sketches."""
        parts = [
            self.delta.base_fingerprint,
            self.model_name,
            str(self.num_sets),
            str(self.seed),
            f"{self.full_resample_threshold:.12g}",
            self.repair,
        ]
        key = ":".join(parts)
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

    def checkpoint_path(self, root: str | os.PathLike) -> Path:
        return Path(root) / f"dynamic-{self.checkpoint_key()}.npz"

    def save_checkpoint(self, root: str | os.PathLike) -> Path:
        """Snapshot the full maintainer state (store, counter, roots,
        epoch) as one checksummed artifact, written atomically."""
        from repro.service.artifacts import save_store

        meta: dict[str, Any] = {
            "dynamic_checkpoint_version": DYNAMIC_CHECKPOINT_VERSION,
            "epoch": int(self.epoch),
            "graph_fp": self.delta.fingerprint(),
            "base_fp": self.delta.base_fingerprint,
            "model": self.model_name,
            "num_sets": self.num_sets,
            "seed": self.seed,
            "full_resample_threshold": self.full_resample_threshold,
            "repair": self.repair,
            "roots": [int(r) for r in self.roots],
        }
        path = save_store(
            self.store,
            self.checkpoint_path(root),
            fingerprint=self.checkpoint_key(),
            counter=self.counter,
            meta=meta,
            compress=False,  # rolling snapshot: trade disk for write speed
        )
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("dynamic.checkpoints_written").inc()
        return path

    def checkpoint_epoch(self, root: str | os.PathLike) -> int | None:
        """The epoch of this configuration's checkpoint under ``root``, read
        from its header alone (``None`` when there is none) and checked as
        :meth:`from_checkpoint` checks it.  A checkpoint that is present
        but unreadable is refused (:class:`ArtifactError`), never taken
        for a missing one."""
        from repro.service.artifacts import read_artifact_meta

        path = self.checkpoint_path(root)
        if not path.exists():
            return None
        meta = read_artifact_meta(path)
        if meta is None:
            raise ArtifactError(
                f"{path}: unreadable checkpoint header (not a repro "
                "artifact, or its meta is not an object)"
            )
        return self._checked_header(meta, path)[0]

    def _checked_header(
        self, meta: dict[str, Any], path: Path
    ) -> tuple[int, np.ndarray]:
        """``(epoch, roots)`` from a checkpoint header, checked field by
        field (:class:`ArtifactError` naming the field): the CRC covers
        only the arrays."""
        check = functools.partial(_check_field, path)
        if meta.get("dynamic_checkpoint_version") != DYNAMIC_CHECKPOINT_VERSION:
            raise ArtifactError(
                f"{path}: unsupported dynamic checkpoint version "
                f"{meta.get('dynamic_checkpoint_version')!r}"
            )
        epoch = meta.get("epoch")
        check(_is_int(epoch) and epoch >= 0, "epoch", "an int >= 0", epoch)
        roots = meta.get("roots")
        n = self.delta.num_vertices
        want = f"a list of {self.num_sets} ints in [0, {n}), one per set"
        check(isinstance(roots, list), "roots", want, roots)
        check(len(roots) == self.num_sets, "roots", want, f"{len(roots)} items")
        wrong = [r for r in roots if not _is_int(r) or not 0 <= r < n]
        check(not wrong, "roots", want, wrong[:1])
        return epoch, np.array(roots, dtype=np.int64)

    @classmethod
    def from_checkpoint(
        cls,
        root: str | os.PathLike,
        delta: DeltaGraph,
        *,
        model: str = "IC",
        num_sets: int = 1000,
        seed: int = 0,
        full_resample_threshold: float = 0.25,
        repair: str = "extend",
    ) -> "IncrementalMaintainer":
        """Restore a maintainer whose sketch matches ``delta``'s epoch.

        ``delta`` must already be replayed to the checkpointed epoch — the
        checkpoint stores the graph fingerprint it was taken at and refuses
        (:class:`ArtifactError`) to resume against any other graph, since a
        silently mismatched sketch would produce wrong seeds.  A header
        whose ``epoch`` or ``roots`` is malformed is refused the same way,
        naming the field.
        """
        from repro.service.artifacts import load_store

        m = cls(
            delta,
            model=model,
            num_sets=num_sets,
            seed=seed,
            full_resample_threshold=full_resample_threshold,
            repair=repair,
            build=False,
        )
        path = m.checkpoint_path(root)
        store, counter, meta = load_store(
            path, expect_fingerprint=m.checkpoint_key()
        )
        epoch, roots = m._checked_header(meta, path)
        if meta.get("graph_fp") != delta.fingerprint():
            raise ArtifactError(
                f"{path}: checkpoint was taken at epoch {epoch} "
                f"of a graph with fingerprint {meta.get('graph_fp')!r}, but "
                f"the delta graph (epoch {delta.epoch}) fingerprints as "
                f"{delta.fingerprint()!r}; replay the update stream to the "
                "checkpointed epoch before resuming"
            )
        m.store = store
        m.counter = (
            counter if counter is not None else store.vertex_counts()
        ).astype(np.int64)
        m.roots = roots
        m.epoch = epoch
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("dynamic.checkpoints_restored").inc()
        return m
