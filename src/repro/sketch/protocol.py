"""The formal :class:`RRRStore` protocol and the :func:`make_store` factory.

Before this redesign every store grew its own surface ad hoc and call
sites constructed them directly; there was no single statement of what a
"store" *is*, so the selection kernels, the artifact layer, and the shard
workers each depended on a slightly different informal subset.  This
module is that statement:

- :class:`RRRStore` — the runtime-checkable protocol every implementation
  satisfies (:class:`~repro.sketch.store.FlatRRRStore`,
  :class:`~repro.sketch.compressed_store.CompressedRRRStore`, and
  :class:`~repro.shm.views.SharedFlatRRRStore`);
- :data:`PROTOCOL_METHODS` / :data:`STORE_EXTRAS` — the drift-guard
  registry: a store may only expose a public method that is either in the
  protocol or declared here as a deliberate extra, so new surface area is
  an explicit decision, not an accident (tests/test_store_protocol.py);
- :func:`make_store` — one keyword-only construction entry point for
  every store kind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import ParameterError
from repro.sketch.compressed_store import CompressedRRRStore
from repro.sketch.store import FlatRRRStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = [
    "RRRStore",
    "PROTOCOL_METHODS",
    "STORE_EXTRAS",
    "STORE_KINDS",
    "make_store",
    "public_surface",
    "store_implementations",
]


@runtime_checkable
class RRRStore(Protocol):
    """What every RRR-set store exposes (docs/memory.md has the full table).

    The selection kernels additionally read ``num_vertices`` and iterate
    sets; both are part of the contract.  ``append``/``extend`` grow the
    store (``append`` returns the new set's index), ``replace_sets``
    splices repaired sets in place (the incremental maintainer's hook),
    ``trim`` drops any growth slack, and ``fingerprint`` is the
    layout-independent content hash
    (:func:`~repro.sketch.store.content_fingerprint`) — two stores holding
    the same sets in the same global order fingerprint identically.
    """

    num_vertices: int

    def append(self, vertices: np.ndarray) -> int: ...

    def extend(self, sets: Sequence[np.ndarray]) -> None: ...

    def get(self, i: int) -> np.ndarray: ...

    def trim(self) -> "RRRStore": ...

    def nbytes(self) -> int: ...

    def sets_containing(self, v: int) -> np.ndarray: ...

    def replace_sets(
        self, indices: np.ndarray, new_sets: Sequence[np.ndarray]
    ) -> "RRRStore": ...

    def fingerprint(self) -> str: ...

    def sizes(self) -> np.ndarray: ...

    def vertex_counts(self) -> np.ndarray: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator: ...


#: Public method/property names the protocol grants every store.
PROTOCOL_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "extend",
        "get",
        "trim",
        "nbytes",
        "sets_containing",
        "replace_sets",
        "fingerprint",
        "sizes",
        "vertex_counts",
    }
)

#: Deliberate per-class additions beyond the protocol.  The drift guard
#: fails when a store grows a public method listed in neither place, so
#: extending a store's surface requires touching this registry (and
#: thinking about whether the method belongs in the protocol instead).
#: :mod:`repro.shm.views` registers ``SharedFlatRRRStore`` on import.
STORE_EXTRAS: dict[type, frozenset[str]] = {
    FlatRRRStore: frozenset(
        {
            "append_csr",
            "from_arrays",
            "membership_pairs",
            "take",
            "offsets",
            "vertices",
            "total_entries",
            "capacity_bytes",
        }
    ),
    CompressedRRRStore: frozenset(
        {"finalize", "compression_ratio", "to_flat"}
    ),
}


def public_surface(cls: type) -> frozenset[str]:
    """Public (non-dunder) methods/properties a class defines or inherits.

    Scans the class dicts along the MRO (instance attributes are invisible
    here, by design: the guard polices *API*, not state).
    """
    names: set[str] = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        for name, value in vars(klass).items():
            if name.startswith("_"):
                continue
            if callable(value) or isinstance(
                value, (property, classmethod, staticmethod)
            ):
                names.add(name)
    return frozenset(names)


def allowed_surface(cls: type) -> frozenset[str]:
    """Protocol methods plus every registered extra along the MRO."""
    allowed = set(PROTOCOL_METHODS)
    for klass in cls.__mro__:
        allowed |= STORE_EXTRAS.get(klass, frozenset())
    return frozenset(allowed)


def store_implementations() -> list[type]:
    """Every registered concrete store class (conformance-test domain)."""
    return list(STORE_EXTRAS)


# -------------------------------------------------------------------- factory
#: Store kinds :func:`make_store` accepts.
STORE_KINDS = ("flat", "compressed", "shared")


def make_store(kind: str, *, num_vertices: int | None = None, **opts):
    """Factory: build any RRR store by kind.

    Keyword-only forms::

        make_store("flat", num_vertices=n)
        make_store("flat", num_vertices=n, offsets=off, vertices=vs)  # rebuild
        make_store("compressed", num_vertices=n, codec="delta-varint")
        make_store("shared", handle=h)        # attach a repro.shm segment
        make_store("shared", name="rs-...")   # ... by raw segment name
    """
    if kind == "shared":
        # Lazy import: repro.shm imports this package's stores.
        from repro import shm

        handle = opts.pop("handle", None)
        name = opts.pop("name", None)
        manager = opts.pop("manager", None)
        if opts:
            raise ParameterError(
                f"unknown make_store options for 'shared': {sorted(opts)}"
            )
        if (handle is None) == (name is None):
            raise ParameterError(
                "make_store('shared', ...) needs exactly one of handle= or name="
            )
        target = handle if handle is not None else name
        if manager is not None:
            return manager.attach_store(target)
        return shm.attach_store(target)

    if num_vertices is None:
        raise ParameterError(f"make_store({kind!r}) requires num_vertices")
    num_vertices = int(num_vertices)

    if kind == "flat":
        offsets = opts.pop("offsets", None)
        vertices = opts.pop("vertices", None)
        if (offsets is None) != (vertices is None):
            raise ParameterError(
                "make_store('flat') needs offsets and vertices together"
            )
        if offsets is not None:
            return FlatRRRStore.from_arrays(
                num_vertices, offsets, vertices, **opts
            )
        return FlatRRRStore(num_vertices, **opts)
    if kind == "compressed":
        return CompressedRRRStore(num_vertices, **opts)
    raise ParameterError(
        f"unknown store kind {kind!r}; expected one of {STORE_KINDS}"
    )
