"""``repro.kernels`` — batched multi-root reverse-sampling kernels.

This package is the only way the program draws RRR sets.  It draws **many
sets per vectorised pass**: a ``(set_id, vertex)`` pair-frontier BFS over
the reverse CSR graph, :data:`BATCH_SIZE` sets per pass over a
``B x |V|`` visited stamp (IC), and a lock-step pass of
:data:`LT_BATCH_SIZE` reverse weighted walks that each check revisits
against their own path, with no per-pass scratch (LT).  Each level draws
one fused coin array across all active sets, with per-set edge-cost
accounting.

Determinism is the load-bearing property.  Randomness comes from
counter-based per-set streams (:mod:`repro.kernels.rng`): each global set
index owns a key derived from ``(seed, set_index)`` and consumes uniforms
``u(key, 0), u(key, 1), ...`` in a canonical traversal order.  Because no
stream state is shared between sets, the output bytes are identical
regardless of batch size, worker count, process start method, or shard
layout.  :mod:`repro.kernels.scalar` is the one per-set traversal: an
independent reference implementation sharing only the RNG layer, which
the equivalence suite in ``tests/test_kernels.py`` uses as the oracle and
whose levels and steps the sampling trace
(:func:`repro.simmachine.instrumented.trace_sampling`) replays.

Entry points:

- :class:`KernelSampler` — ``sample_for_roots`` / ``sample_indexed`` and
  their per-pass streaming forms, plus ``grow`` (the dynamic layer's
  insert extension);
- :func:`indexed_draws` / :func:`roots_for_indices` — the deterministic
  root and key streams of global set indices.
"""

from __future__ import annotations

from repro.kernels.batched import (
    BATCH_SIZE,
    LT_BATCH_SIZE,
    BatchedSampler,
    sample_batched,
)
from repro.kernels.dispatch import KernelSampler, indexed_draws
from repro.kernels.rng import (
    coin_key,
    counter_uniforms,
    derive_key,
    derive_keys,
    roots_for_indices,
)
from repro.kernels.scalar import sample_scalar

__all__ = [
    "BATCH_SIZE",
    "BatchedSampler",
    "LT_BATCH_SIZE",
    "KernelSampler",
    "coin_key",
    "counter_uniforms",
    "derive_key",
    "derive_keys",
    "indexed_draws",
    "roots_for_indices",
    "sample_batched",
    "sample_scalar",
]
