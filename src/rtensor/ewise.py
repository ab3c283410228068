"""N-ary alignment and entrywise operations with broadcasting.

Operands align on the set union of their index identities, taken in sequence
(leftmost occurrence wins, including its variant).  Each tensor's entries are
permuted so tensor dimensions follow the union order, with size-1 dimensions
standing in for absent identities; rows and columns broadcast like any other
size-1 dimension, which realizes implicit with-unit outer products.  After the
entrywise kernel runs, identities that appeared in both variants are summed
away, mirroring the generic binary pipeline even for additions and relations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, ElementKindError, OperandKindError
from .indices import IndexHandle
from .tensor import Tensor

__all__ = ["AlignmentPlanN", "alignn", "ewise_binary", "ewise_unary", "equal_all"]


@dataclass(frozen=True)
class AlignmentPlanN:
    """Result of matching index lists across N operands."""

    union_indices: tuple[IndexHandle, ...]
    contract_ids: tuple[IndexHandle, ...]


def _coerce_plain(op) -> np.ndarray:
    arr = np.asarray(op)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, arr.shape[0])
    if arr.ndim != 2:
        raise OperandKindError("plain operands must be 2D arrays")
    return arr


def alignn(operands, *, skip_size_check=()):
    """Align N operands on their index union.

    Returns the aligned entry arrays (full rank ``2 + len(union)``) and the
    :class:`AlignmentPlanN`.  Plain 2D arrays pass through reshaped with
    singleton tensor dimensions.  ``skip_size_check`` lists identities whose
    sizes may legitimately differ (used by index concatenation).
    """
    ops = [op.simplify() if isinstance(op, Tensor) else _coerce_plain(op) for op in operands]
    union: list[IndexHandle] = []
    seen: dict[int, bool] = {}
    both: set[int] = set()
    for op in ops:
        if not isinstance(op, Tensor):
            continue
        for h in op.indices:
            if h.id not in seen:
                seen[h.id] = h.variant
                union.append(h)
            elif seen[h.id] != h.variant:
                both.add(h.id)
    sizes: dict[int, int] = {}
    for op in ops:
        if not isinstance(op, Tensor):
            continue
        for t, h in enumerate(op.indices):
            n = op.tensor_dims[t]
            if h.id in skip_size_check or n == 1:
                continue
            if sizes.setdefault(h.id, n) != n:
                raise DimMismatchError(
                    f"index {h!r} has sizes {sizes[h.id]} and {n} across operands"
                )
    groups = [[0], [1]] + [[h] for h in union]
    aligned = [
        op.fold(groups) if isinstance(op, Tensor) else op.reshape(op.shape + (1,) * len(union))
        for op in ops
    ]
    contract = tuple(h for h in union if h.id in both)
    return aligned, AlignmentPlanN(tuple(union), contract)


_ARITH = {
    "+": np.add,
    "-": np.subtract,
    ".*": np.multiply,
    "./": np.divide,
    ".\\": lambda a, b: np.divide(b, a),
    ".^": np.power,
}
_RELATION = {
    "==": np.equal,
    "~=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}
_LOGICAL = {"and": np.logical_and, "or": np.logical_or}
_ORDERED = {"<", ">", "<=", ">="}


def ewise_binary(op: str, a, b) -> Tensor:
    """Entrywise binary operation over the aligned union, then contraction.

    Relations and logical operations yield boolean elements; ordered
    comparisons reject complex operands.  Division follows IEEE semantics
    (inf/nan), never an error.
    """
    aligned, plan = alignn([a, b])
    xa, xb = aligned
    if op in _ARITH:
        if xa.dtype == np.bool_:
            xa = xa.astype(np.float64)
        if xb.dtype == np.bool_:
            xb = xb.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _ARITH[op](xa, xb)
    elif op in _RELATION:
        if op in _ORDERED and (
            np.issubdtype(xa.dtype, np.complexfloating)
            or np.issubdtype(xb.dtype, np.complexfloating)
        ):
            raise ElementKindError(f"ordered comparison {op!r} undefined for complex values")
        out = _RELATION[op](xa, xb)
    elif op in _LOGICAL:
        out = _LOGICAL[op](xa != 0 if xa.dtype != np.bool_ else xa,
                           xb != 0 if xb.dtype != np.bool_ else xb)
    else:
        raise ValueError(f"unknown entrywise operator {op!r}")
    result = Tensor(out, plan.union_indices)
    if plan.contract_ids:
        result = result.sum(plan.contract_ids)
    return result


_UNARY = {
    "neg": np.negative,
    "conj": np.conj,
    "abs": np.abs,
    "log": np.log,
    "exp": np.exp,
}


def ewise_unary(fn: str, t, p: int | None = None) -> Tensor:
    """Entrywise unary function; indices unchanged.

    ``round`` takes a decimal-precision argument.  ``step`` maps positive
    entries to 1 and the rest, zero included, to 0, so ``step(-x)`` filters
    strictly negative values.
    """
    if not isinstance(t, Tensor):
        t = Tensor(_coerce_plain(t))
    arr = t.entries
    if fn == "not":
        if arr.dtype != np.bool_:
            raise ElementKindError("logical NOT requires boolean elements")
        out = np.logical_not(arr)
    elif fn == "round":
        out = np.round(arr, 0 if p is None else int(p))
    elif fn == "step":
        if np.issubdtype(arr.dtype, np.complexfloating):
            raise ElementKindError("step is undefined for complex values")
        out = (arr > 0).astype(np.float64)
    elif fn in _UNARY:
        if fn in ("log", "exp", "abs") and arr.dtype == np.bool_:
            arr = arr.astype(np.float64)
        if fn == "neg" and arr.dtype == np.bool_:
            arr = arr.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _UNARY[fn](arr)
    else:
        raise ValueError(f"unknown entrywise function {fn!r}")
    return Tensor(out, t.indices)


def equal_all(operands) -> bool:
    """True iff all operands align to identical entries with no variant conflict.

    Any identity used in one variant by one operand and the complementary
    variant by another makes the answer False outright, matching how a column
    vector never equals its transposed row.  NaN compares unequal.
    """
    ops = [op.simplify() if isinstance(op, Tensor) else _coerce_plain(op) for op in operands]
    if len(ops) < 2:
        return True
    variants: dict[int, bool] = {}
    for op in ops:
        if not isinstance(op, Tensor):
            continue
        for h in op.indices:
            if variants.setdefault(h.id, h.variant) != h.variant:
                return False
    try:
        aligned, _ = alignn(ops)
    except DimMismatchError:
        return False
    first = aligned[0]
    for other in aligned[1:]:
        if first.shape != other.shape:
            return False
        if not np.array_equal(first, other):
            return False
    return True
