"""Globally unique tensor indices, each living in exactly two variants.

An index identity is an opaque integer drawn from a process-wide counter and
never reused.  Every identity exists in a true variant and a false variant;
complementation flips the variant and leaves the identity alone.  Repeating an
identity with complementary variants requests summation, repeating it with
equal variants requests entrywise pairing, and unmatched identities pair
operands in outer fashion.  Handles are small immutable values, so comparing
them never touches shared state.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from .errors import BoundsError

__all__ = ["IndexHandle", "fresh", "fresh_many"]

_counter = itertools.count()
_lock = threading.Lock()


@dataclass(frozen=True, slots=True)
class IndexHandle:
    """One variant of one index identity."""

    id: int
    variant: bool = True

    def __invert__(self) -> "IndexHandle":
        return IndexHandle(self.id, not self.variant)

    def __repr__(self) -> str:
        return f"i{self.id}" if self.variant else f"~i{self.id}"


def fresh() -> IndexHandle:
    """Return a true-variant handle with an identity never returned before."""
    with _lock:
        return IndexHandle(next(_counter), True)


def fresh_many(n: int) -> list[IndexHandle]:
    """Return ``n`` pairwise-distinct true-variant handles."""
    if n < 0:
        raise BoundsError(f"count must be nonnegative, got {n}")
    return [fresh() for _ in range(n)]

