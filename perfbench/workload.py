"""What every workload provides to the runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One operation of a workload's cycle.

    ``run`` is the timed call into the package.  ``check(out, full)`` is
    called outside the timed region and returns True when ``out`` is correct;
    ``full`` is False in the timed phases, where a check may compare a sample
    of a large result instead of all of it.  ``flops`` is the computed
    floating-point operation count of the call (0 where none is defined) and
    ``operand_bytes`` the bytes of its largest operand.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, bool], bool]
    flops: float = 0.0
    operand_bytes: int = 0
    extra: dict = field(default_factory=dict)


class Workload:
    """A seeded set of inputs and the cycle of operations run on them.

    The constructor is the set-up: it imports nothing and builds every input
    from ``seed``.  The runner repeats whole cycles of ``ops``.
    """

    name = ""
    tail_percentile = 90.0
    ops: list[Op]

    def begin_cycle(self):
        """Reset per-cycle state (untimed)."""

    def pass_stats(self, op: Op, out) -> None:
        """See each output of the one untimed checking pass."""

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures this workload computes itself (untimed)."""
        return {}
