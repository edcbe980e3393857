"""Sampling checkpoints: resumable RRR generation through the artifact layer.

An IMM run spends almost all of its time in the sampling batches the
martingale schedule requests (estimation levels, then the top-up).  The
:class:`SamplingCheckpointer` snapshots the complete sampler state after
every completed batch — the RRR store, the fused counter, and the
per-set cost bookkeeping — as one checksummed ``.npz`` artifact (the
sketch artifact format, written atomically via rename).

Because :func:`repro.core.imm.run_imm` is deterministic in that state, a
run interrupted at *any* point and restarted with ``resume=True`` replays
the completed batches as no-ops (the store already holds their sets), then
continues sampling at the next set index — every set's randomness is keyed
by ``(seed, index)`` (:mod:`repro.kernels`), so there is no RNG state to
restore — producing **byte-identical**
seed sets to an uninterrupted run.  The checkpoint is keyed by
:func:`run_key`, a fingerprint over the graph, every parameter that shapes
sampling, and the framework, so a stale checkpoint from a different run can
never be resumed into the wrong context (it raises
:class:`~repro.errors.ArtifactError` instead).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import telemetry
from repro.errors import ArtifactError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.params import IMMParams
    from repro.core.sampling import RRRSampler
    from repro.graph.csr import CSRGraph

__all__ = ["SamplingCheckpointer", "run_key"]

#: Version of the checkpoint metadata layered on the sketch artifact schema.
#: Version 2 holds only counter-keyed sets; a version-1 checkpoint (sets
#: from a sequential Generator plus its state) is refused, never resumed.
CHECKPOINT_VERSION = 2


def run_key(graph: "CSRGraph", params: "IMMParams", framework: str = "IMM") -> str:
    """Fingerprint of one resumable run: graph + sampling parameters.

    Everything that influences which RRR sets get drawn (and therefore the
    seeds out of selection) is folded in; two runs share a checkpoint key
    iff an uninterrupted run would give them identical results.
    """
    from repro.graph.io import graph_fingerprint

    key = ":".join(
        str(v)
        for v in (
            graph_fingerprint(graph),
            str(framework),
            params.k,
            f"{float(params.epsilon):.12g}",
            f"{float(params.ell):.12g}",
            str(params.model).upper(),
            params.seed,
            params.num_threads,
            params.theta_cap,
        )
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


class SamplingCheckpointer:
    """Writes/restores per-batch sampler snapshots under one run key.

    One rolling checkpoint file is kept per key (``checkpoint-<key>.npz``
    under ``root``); each :meth:`save` atomically replaces the previous
    snapshot, so an interrupt mid-write leaves the last good checkpoint
    intact.  ``every`` thins the cadence: ``every=3`` snapshots batches
    0, 3, 6, ... (resume then replays the un-checkpointed tail batches,
    still byte-identically).
    """

    def __init__(self, root: str | os.PathLike, key: str, *, every: int = 1):
        if every < 1:
            raise ArtifactError(f"checkpoint cadence must be >= 1, got {every}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.key = str(key)
        self.every = int(every)
        self.saves = 0

    def path(self) -> Path:
        return self.root / f"checkpoint-{self.key}.npz"

    def has_checkpoint(self) -> bool:
        return self.path().exists()

    # ------------------------------------------------------------------ save
    def save(self, sampler: "RRRSampler", batch_index: int) -> Path | None:
        """Snapshot the sampler after completed batch ``batch_index``.

        Returns the checkpoint path, or ``None`` when the cadence skipped
        this batch.  The write goes through the artifact layer (CRC-32,
        schema version) into a temp file, then an atomic rename.
        """
        if batch_index % self.every != 0:
            return None
        from repro.service.artifacts import save_store

        stats = sampler.stats
        meta: dict[str, Any] = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "run_key": self.key,
            "batch_index": int(batch_index),
            "per_set_costs": [float(c) for c in sampler.per_set_costs],
            "per_set_edges": [int(e) for e in sampler.per_set_edges],
            "num_atomic_updates": int(sampler.num_atomic_updates),
            "stats": {
                "num_threads": stats.num_threads,
                "loads": stats.loads.tolist(),
                "stores": stats.stores.tolist(),
                "atomics": stats.atomics.tolist(),
                "compute": stats.compute.tolist(),
                "serial_ops": float(stats.serial_ops),
                "sync_barriers": int(stats.sync_barriers),
            },
        }
        final = self.path()
        tmp = final.with_name(final.stem + ".tmp.npz")
        save_store(
            sampler.store,
            tmp,
            fingerprint=self.key,
            counter=sampler.counter,
            meta=meta,
            # Rolling checkpoints are rewritten every batch; the zlib pass
            # dominates the write cost, so trade disk for speed.
            compress=False,
        )
        os.replace(tmp, final)
        self.saves += 1
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("resilience.checkpoints_written").inc()
            tel.registry.gauge("resilience.checkpoint_sets").set(len(sampler.store))
        return final

    # --------------------------------------------------------------- restore
    def restore(self, sampler: "RRRSampler") -> int | None:
        """Load the latest snapshot into ``sampler``; returns its batch
        index, or ``None`` when no checkpoint exists for this key.

        Raises :class:`~repro.errors.ArtifactError` when the checkpoint is
        corrupt or belongs to a different run key — resuming the wrong
        state would silently produce wrong seeds, so it is never attempted.
        """
        if not self.has_checkpoint():
            return None
        from repro.core.params import KernelStats
        from repro.service.artifacts import load_store

        store, counter, meta = load_store(self.path(), expect_fingerprint=self.key)
        if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ArtifactError(
                f"{self.path()}: unsupported checkpoint version "
                f"{meta.get('checkpoint_version')!r}"
            )
        if counter is None:
            counter = store.vertex_counts()
        sampler.store = store
        sampler.counter = counter
        sampler.per_set_costs = [float(c) for c in meta.get("per_set_costs", [])]
        sampler.per_set_edges = [int(e) for e in meta.get("per_set_edges", [])]
        sampler.num_atomic_updates = int(meta.get("num_atomic_updates", 0))
        st = meta.get("stats")
        if st is not None and st.get("num_threads") == sampler.stats.num_threads:
            sampler.stats = KernelStats(
                num_threads=int(st["num_threads"]),
                loads=np.asarray(st["loads"], dtype=np.float64),
                stores=np.asarray(st["stores"], dtype=np.float64),
                atomics=np.asarray(st["atomics"], dtype=np.float64),
                compute=np.asarray(st["compute"], dtype=np.float64),
                serial_ops=float(st["serial_ops"]),
                sync_barriers=int(st["sync_barriers"]),
            )
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("resilience.checkpoints_restored").inc()
        return int(meta["batch_index"])

    def clear(self) -> None:
        """Delete this key's checkpoint (e.g. after a completed run)."""
        try:
            self.path().unlink()
        except FileNotFoundError:
            pass
