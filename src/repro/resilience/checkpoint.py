"""Sampling checkpoints: resumable RRR generation through the artifact layer.

An IMM run spends almost all of its time in the sampling batches the
martingale schedule requests (estimation levels, then the top-up).  The
:class:`SamplingCheckpointer` snapshots the complete sampler state after
every completed batch — the RRR store, the fused counter and the edges
each set examined — as one checksummed ``.npz`` artifact (the sketch
artifact format, written atomically via rename).  The CRC covers only the
arrays, so :meth:`SamplingCheckpointer.restore` checks the JSON header
field by field.

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

import functools
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

        meta: dict[str, Any] = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "run_key": self.key,
            "batch_index": int(batch_index),
            "per_set_edges": sampler.per_set_edges.tolist(),
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
        corrupt, belongs to a different run key or has a malformed header
        field — resuming the wrong state would silently produce wrong
        seeds, so it is never attempted.  Header keys it does not read,
        such as the per-set costs and per-thread ``stats`` older checkpoints
        carry, are ignored.
        """
        if not self.has_checkpoint():
            return None
        from repro.service.artifacts import load_store

        store, counter, meta = load_store(self.path(), expect_fingerprint=self.key)
        check = functools.partial(_check_field, self.path())
        if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ArtifactError(
                f"{self.path()}: unsupported checkpoint version "
                f"{meta.get('checkpoint_version')!r}"
            )
        batch_index = meta.get("batch_index")
        check(
            _is_int(batch_index) and batch_index >= 0,
            "batch_index", "an int >= 0", batch_index,
        )
        edges = meta.get("per_set_edges")
        want = f"a list of {len(store)} ints in [0, 2**63), one per stored set"
        check(isinstance(edges, list), "per_set_edges", want, edges)
        check(len(edges) == len(store), "per_set_edges", want, f"{len(edges)} items")
        wrong = [e for e in edges if not _is_int(e) or e < 0]
        check(not wrong, "per_set_edges", want, wrong[:1])
        sampler.store = store
        sampler.counter = store.vertex_counts() if counter is None else counter
        sampler.per_set_edges = np.asarray(edges, dtype=np.int64)
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("resilience.checkpoints_restored").inc()
        return batch_index

    def clear(self) -> None:
        """Delete this key's checkpoint (e.g. after a completed run)."""
        try:
            self.path().unlink()
        except FileNotFoundError:
            pass


def _is_int(value: Any) -> bool:
    """A JSON integer that fits int64; ``bool`` is not one."""
    return type(value) is int and -(2**63) <= value < 2**63


def _check_field(path: Path, ok: bool, field: str, want: str, got: Any) -> None:
    """Refuse the checkpoint at ``path`` unless its header ``field`` is
    ``ok``: the CRC covers only the arrays, so every header field a restore
    reads is checked, and the error names the field."""
    if not ok:
        raise ArtifactError(
            f"{path}: checkpoint header field {field!r} must be {want}, "
            f"got {got!r}"
        )
