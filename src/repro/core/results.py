"""The shared result-record convention for every ops query surface.

The §8 lessons ask for "APIs ... providing direct information without
the necessity of parsing log files".  Early revisions of this repo
answered each query with an ad-hoc ``dict``, so every caller had to
know a different shape.  :class:`ReportRecord` is the one convention
all query surfaces now share:

* results are **frozen dataclasses** — named, typed, hashable fields;
* ``as_dict()`` returns the plain-dict view (nested records included);
* ``to_json()`` serialises with **sorted keys**, so equal records
  produce byte-identical JSON (diffable, cacheable).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Sequence, Tuple


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for field values (inf -> string)."""
    if isinstance(value, float) and (value != value or value in (float("inf"), -float("inf"))):
        return repr(value)
    if isinstance(value, BaseException):
        return type(value).__name__
    return value


class ReportRecord:
    """Mixin base for frozen result dataclasses.

    Subclasses are ``@dataclass(frozen=True)``; this base supplies the
    uniform ``as_dict``/``to_json`` surface.
    """

    def as_dict(self) -> Dict[str, Any]:
        """The record as a plain dict (nested records become dicts)."""
        return dataclasses.asdict(self)  # type: ignore[call-overload]

    def to_json(self) -> str:
        """Sorted-key JSON — equal records serialise identically."""
        return json.dumps(self.as_dict(), sort_keys=True, default=_jsonable)


@dataclasses.dataclass(frozen=True)
class ReportPage(ReportRecord):
    """One page of a large report: a slice of rows plus slice/total
    bookkeeping, so consumers (the HTTP service, CLI tables) can walk a
    report window by window without the producer ever re-serializing
    the whole tree.

    ``rows`` holds the page's records — :class:`ReportRecord` instances
    or plain dicts; ``as_dict()`` emits the wire shape::

        {"items": [...], "total": N, "slice": {"offset": o, "limit": l,
         "returned": len(items)}}

    Build pages with :func:`paginate`, which slices *first* and only
    then converts, so serving page 3 of a 100k-row trace report touches
    ``limit`` rows, not 100k.
    """

    rows: Tuple[Any, ...]
    total: int
    offset: int
    limit: int

    def as_dict(self) -> Dict[str, Any]:
        rows = [
            row.as_dict() if isinstance(row, ReportRecord) else row
            for row in self.rows
        ]
        return {
            "items": rows,
            "total": self.total,
            "slice": {
                "offset": self.offset,
                "limit": self.limit,
                "returned": len(rows),
            },
        }


def paginate(rows: Sequence[Any], offset: int = 0, limit: int = 500) -> ReportPage:
    """Slice ``rows`` into a :class:`ReportPage`.

    ``offset`` past the end yields an empty page (``total`` still tells
    the caller where the end is); a non-positive ``limit`` or negative
    ``offset`` raises ``ValueError`` — the HTTP layer maps that to 400.
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return ReportPage(
        rows=tuple(rows[offset:offset + limit]),
        total=len(rows),
        offset=offset,
        limit=limit,
    )
