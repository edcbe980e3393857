"""Query/response records and the JSON-lines wire protocol of `repro serve`.

A client submits :class:`IMQuery` records — "give me the top-``k`` seeds on
``dataset`` under ``model`` at quality ``epsilon``" — and receives
:class:`IMResponse` records.  Queries that name the same sketch
(:class:`~repro.service.artifacts.SketchSpec`: everything but ``k``,
``deadline_s`` and ``id``, with ``theta_cap`` resolved) are answered from
one sketch and one incremental greedy selection pass (greedy seed sets are
prefix-consistent, so the first ``k`` seeds of a ``k_max`` selection are
exactly the ``k``-seed answer).

Wire format (one JSON document per line, both directions)::

    {"dataset": "amazon", "model": "IC", "k": 10, "epsilon": 0.5}
    {"queries": [{...}, {...}]}          # explicit batch
    {"op": "stats"}                      # server statistics snapshot

Responses mirror the query ``id`` (when given) and carry ``status`` of
``"ok"``, ``"timeout"`` (the per-query deadline expired — reported, never a
hang), ``"error"`` (typically a :class:`~repro.errors.ParameterError`), or
``"overloaded"`` (the gateway shed the request under load; ``retry_after_s``
suggests when to come back — docs/gateway.md).  An ``"ok"`` response
additionally carries ``degraded: true`` when the engine could not build the
exact sketch the query asked for and served the freshest compatible stale
artifact instead (docs/resilience.md).

Wire lines are bounded: :func:`parse_request_line` rejects lines longer
than ``MAX_LINE_BYTES`` (1 MiB by default) with a structured
:class:`~repro.errors.ParameterError` instead of attempting the decode, so
both the stdin loops and the TCP gateway share one oversized-input path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ParameterError

__all__ = ["IMQuery", "IMResponse", "parse_request_line", "MAX_LINE_BYTES"]

#: Default bound on one wire line (either direction).  Generous — a maximal
#: batch of a few thousand queries fits — but small enough that a malicious
#: or corrupted stream cannot balloon the parser.
MAX_LINE_BYTES = 1 << 20


def _is_number(value: Any) -> bool:
    """A JSON number: an ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class IMQuery:
    """One influence-maximisation request.

    Attributes
    ----------
    dataset:
        Replica dataset name (see ``repro datasets``).
    model:
        Diffusion model, ``"IC"`` or ``"LT"``.
    k:
        Seed-set budget.
    epsilon:
        IMM approximation quality; part of the sketch fingerprint.
    seed:
        Sampling RNG seed; part of the sketch fingerprint.
    theta_cap:
        Number of RRR sets the serving sketch holds; ``None`` uses the
        engine's ``default_theta``.  Part of the sketch fingerprint.
    deadline_s:
        Per-query time budget in seconds, measured from submission; an
        expired deadline yields a ``"timeout"`` response instead of a hang.
    id:
        Opaque client correlation id, echoed in the response.
    """

    dataset: str
    model: str = "IC"
    k: int = 10
    epsilon: float = 0.5
    seed: int = 0
    theta_cap: int | None = None
    deadline_s: float | None = None
    id: str | None = None

    def validate(self) -> None:
        """Raise :class:`ParameterError` on out-of-domain fields.

        Mirrors :class:`~repro.core.params.IMMParams` validation so a bad
        query fails before any graph or sketch work happens.  ``k`` against
        the vertex count is checked later, once the graph is resolved.
        Every out-of-domain *or* wrong-typed field (a JSON string where a
        number belongs, say) raises :class:`ParameterError` — wire input
        must never surface a bare ``TypeError``/``ValueError``.
        """
        if not self.dataset or not isinstance(self.dataset, str):
            raise ParameterError(f"dataset must be a non-empty string, got {self.dataset!r}")
        if str(self.model).upper() not in ("IC", "LT"):
            raise ParameterError(f"model must be 'IC' or 'LT', got {self.model!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ParameterError(f"k must be a positive integer, got {self.k!r}")
        if not _is_number(self.epsilon):
            raise ParameterError(f"epsilon must be a number, got {self.epsilon!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ParameterError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        if self.theta_cap is not None:
            if not isinstance(self.theta_cap, int) or isinstance(self.theta_cap, bool):
                raise ParameterError(f"theta_cap must be an integer, got {self.theta_cap!r}")
            if self.theta_cap < 1:
                raise ParameterError(f"theta_cap must be >= 1, got {self.theta_cap}")
        if self.deadline_s is not None:
            if not _is_number(self.deadline_s):
                raise ParameterError(
                    f"deadline_s must be a number, got {self.deadline_s!r}"
                )
            if not self.deadline_s >= 0:  # NaN fails this too
                raise ParameterError(f"deadline_s must be >= 0, got {self.deadline_s}")
        if self.id is not None and not isinstance(self.id, str):
            raise ParameterError(f"id must be a string, got {self.id!r}")

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "IMQuery":
        """Build a query from a decoded JSON object (unknown keys rejected)."""
        if not isinstance(doc, dict):
            raise ParameterError(f"query must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ParameterError(f"unknown query field(s): {', '.join(sorted(unknown))}")
        if "dataset" not in doc:
            raise ParameterError("query is missing the required 'dataset' field")
        q = cls(**doc)
        q.validate()
        return q

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "dataset": self.dataset, "model": self.model, "k": self.k,
            "epsilon": self.epsilon, "seed": self.seed,
        }
        if self.theta_cap is not None:
            doc["theta_cap"] = self.theta_cap
        if self.deadline_s is not None:
            doc["deadline_s"] = self.deadline_s
        if self.id is not None:
            doc["id"] = self.id
        return doc


@dataclass
class IMResponse:
    """The answer (or failure report) to one :class:`IMQuery`."""

    status: str  # "ok" | "timeout" | "error" | "overloaded"
    id: str | None = None
    seeds: list[int] = field(default_factory=list)
    spread_estimate: float = 0.0
    coverage_fraction: float = 0.0
    num_rrrsets: int = 0
    cached: bool = False
    degraded: bool = False
    latency_s: float = 0.0
    error: str | None = None
    #: Graph epoch the answer was computed against (dynamic serving only;
    #: ``None`` for static datasets).  See docs/dynamic.md.
    epoch: int | None = None
    #: Suggested client backoff on an ``"overloaded"`` response (gateway
    #: load shedding; docs/gateway.md).  ``None`` on every other status.
    retry_after_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"status": self.status}
        if self.id is not None:
            doc["id"] = self.id
        if self.status == "ok":
            doc.update(
                seeds=self.seeds,
                spread_estimate=self.spread_estimate,
                coverage_fraction=self.coverage_fraction,
                num_rrrsets=self.num_rrrsets,
                cached=self.cached,
                degraded=self.degraded,
            )
            if self.epoch is not None:
                doc["epoch"] = self.epoch
        else:
            doc["error"] = self.error
            if self.status == "overloaded" and self.retry_after_s is not None:
                doc["retry_after_s"] = self.retry_after_s
        doc["latency_s"] = self.latency_s
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "IMResponse":
        """Rebuild a response from its wire dict (the client-side decode).

        Inverse of :meth:`to_dict`; unknown keys are ignored so older
        clients keep working when the server grows new response fields.
        """
        if not isinstance(doc, dict) or "status" not in doc:
            raise ParameterError(
                f"response must be a JSON object with a 'status' field, got {doc!r}"
            )
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in doc.items() if k in known})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=float)


def parse_request_line(
    line: str | bytes, *, max_line_bytes: int = MAX_LINE_BYTES
) -> list[IMQuery] | dict[str, Any]:
    """Decode one wire line into a query batch or a control operation.

    Returns a list of :class:`IMQuery` for query lines (a bare object, a
    JSON array, or ``{"queries": [...]}``), or the raw dict for control
    lines carrying an ``"op"`` key (e.g. ``{"op": "stats"}``).  Raises
    :class:`ParameterError` on malformed input — oversized lines (beyond
    ``max_line_bytes``), undecodable bytes, non-object JSON scalars, and
    wrong-typed query fields all come back as this one structured error,
    never as an unhandled exception.  Both the stdin serving loops and the
    TCP gateway go through this same path.
    """
    if len(line) > max_line_bytes:
        raise ParameterError(
            f"request line of {len(line)} bytes exceeds the "
            f"{max_line_bytes}-byte limit"
        )
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParameterError(f"request line is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"bad JSON request: {exc}") from exc
    if isinstance(doc, dict) and "op" in doc:
        if not isinstance(doc["op"], str):
            raise ParameterError(f"op must be a string, got {doc['op']!r}")
        return doc
    if isinstance(doc, dict) and "queries" in doc:
        doc = doc["queries"]
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list) or not doc:
        raise ParameterError("request must be a query object or a non-empty array")
    return [IMQuery.from_dict(d) for d in doc]
