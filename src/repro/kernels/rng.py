"""Counter-based per-set random streams for the sampling kernels.

``numpy.random.Generator`` streams are *stateful*: the i-th draw depends on
how many draws came before it, so any change to batching or work division
changes every subsequent sample.  The kernels instead use a **counter-based**
construction (the property that makes Philox/Threefry reproducible on GPUs):

    u = uniform(key, counter)

is a pure function of a 64-bit per-set ``key`` and a 64-bit draw ``counter``.
A set's key is derived from ``(seed, set_index)``; its draws are consumed in
a canonical traversal order.  Nothing depends on which batch, worker, or
process evaluated the set, so output is byte-identical across all of them.

The bijective mixer is splitmix64 (Steele et al., *Fast Splittable
Pseudorandom Number Generators*) — two xor-shift-multiply rounds, which pass
BigCrush when used as a stream generator and vectorise to a handful of
uint64 numpy ops.  Floats use the standard 53-bit mantissa construction
``(x >> 11) * 2**-53``, giving uniforms in ``[0, 1)``.

A coin that fires with probability ``p`` is ``u < p``.  Scaling both sides
by ``2**53`` is exact, so the kernels flip it as the integer compare
``(x >> 11) < ceil(p * 2**53)`` (:func:`coin_thresholds`,
:func:`flip_coins`): the same outcome as the float compare for every ``p``
in ``[0, 1]``, with no float conversion per coin.

All arithmetic is modulo 2**64 (numpy uint64 wraps silently); the explicit
``errstate`` guards silence the scalar-overflow RuntimeWarnings some numpy
versions emit for 0-d operands.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coin_key",
    "coin_thresholds",
    "counter_uniforms",
    "derive_key",
    "derive_keys",
    "flip_coins",
    "rank_seed",
    "root_key",
    "roots_for_indices",
]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 stream increment
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S1 = np.uint64(30)
_S2 = np.uint64(27)
_S3 = np.uint64(31)
_SEED0 = np.uint64(0x243F6A8885A308D3)  # pi digits: arbitrary non-zero start
_INV53 = np.float64(2.0**-53)
_SH11 = np.uint64(11)

# Domain tags keep the root stream, the coin stream, the dynamic layer's
# resample and insert-extension streams, and the distributed ranks' seeds
# disjoint even for identical (seed, index) pairs.
DOMAIN_ROOT = 0x01
DOMAIN_COIN = 0x02
DOMAIN_RESAMPLE = 0x03
DOMAIN_EXTEND = 0x04
DOMAIN_RANK = 0x05


def _mix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer: a bijective avalanche mix on uint64.

    Mixes an array in place (callers pass a buffer they own) and returns
    it; a scalar is rebound, not mutated.
    """
    x ^= x >> _S1
    x *= _M1
    x ^= x >> _S2
    x *= _M2
    x ^= x >> _S3
    return x


def derive_key(*components: int) -> int:
    """Fold integer components into one 64-bit stream key.

    Order-sensitive and collision-resistant in practice: each component is
    pre-mixed before being absorbed so ``derive_key(a, b) != derive_key(b, a)``
    for almost all pairs.
    """
    with np.errstate(over="ignore"):
        x = _SEED0
        for part in components:
            p = np.uint64(int(part) & 0xFFFFFFFFFFFFFFFF)
            x = _mix64(x ^ _mix64(p + _GAMMA))
        return int(x)


def derive_keys(base_key: int, indices: np.ndarray) -> np.ndarray:
    """Vectorised per-index keys: one independent stream per set index."""
    idx = np.asarray(indices).astype(np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(np.uint64(base_key) ^ _mix64(idx + _GAMMA))


def counter_uniforms(
    keys: np.ndarray | int, counters: np.ndarray
) -> np.ndarray:
    """``uniform(key, counter)`` in ``[0, 1)``, elementwise over arrays.

    ``keys`` may be a scalar (one stream, many counters) or an array aligned
    with ``counters`` (one draw from each of many streams).
    """
    ctr = np.asarray(counters, dtype=np.uint64)
    if isinstance(keys, np.ndarray):
        k = np.asarray(keys, dtype=np.uint64)
    else:
        k = np.uint64(keys)
    with np.errstate(over="ignore"):
        x = _mix64((ctr * _GAMMA) ^ k)
        return ((x >> _SH11).astype(np.float64)) * _INV53


def coin_thresholds(probs: np.ndarray) -> np.ndarray:
    """Integer coin thresholds ``ceil(p * 2**53)`` (uint64), elementwise.

    ``u < p`` for ``u = (x >> 11) * 2**-53`` holds exactly when
    ``(x >> 11) < ceil(p * 2**53)``: multiplying by ``2**53`` is exact for
    every ``p`` in ``[0, 1]`` (subnormals included), and ``x >> 11`` is an
    integer.  ``p = 1`` gives ``2**53``, above every draw; ``p = 0`` gives 0.
    """
    return np.ceil(np.asarray(probs, dtype=np.float64) * 2.0**53).astype(np.uint64)


def flip_coins(
    counters: np.ndarray, keys: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """``counter_uniforms(keys, counters) < p`` elementwise, for
    ``thresholds = coin_thresholds(p)``, as integer compares.

    Hashes in place: ``counters`` (a uint64 array, the caller's buffer) is
    overwritten.
    """
    counters *= _GAMMA
    counters ^= keys
    _mix64(counters)
    counters >>= _SH11
    return counters < thresholds


def root_key(seed: int) -> int:
    """Key of the root stream for a sampling run."""
    return derive_key(seed, DOMAIN_ROOT)


def coin_key(seed: int) -> int:
    """Base key the per-set coin streams are derived from."""
    return derive_key(seed, DOMAIN_COIN)


def rank_seed(seed: int, rank: int) -> int:
    """Integer sampling seed of one distributed rank: each rank draws its
    own counter-keyed stream, disjoint from every other rank's."""
    return derive_key(seed, DOMAIN_RANK, rank)


def roots_for_indices(
    seed: int, indices: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Deterministic uniform roots for global set indices.

    ``floor(u * n)`` over the root stream: set *i* gets the same root no
    matter which batch or worker asks for it.
    """
    u = counter_uniforms(root_key(seed), np.asarray(indices, dtype=np.int64))
    roots = (u * num_vertices).astype(np.int64)
    # floor(u * n) can only hit n through float rounding at u -> 1-ulp.
    np.clip(roots, 0, num_vertices - 1, out=roots)
    return roots
