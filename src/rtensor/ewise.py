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

from .errors import BoundsError, DimMismatchError, ElementKindError, UnknownNameError
from .indices import IndexHandle
from .tensor import Tensor, _arithmetic, _check_degree, _ieee, _operand

__all__ = ["AlignmentPlanN", "alignn", "ewise_binary", "ewise_unary", "equal_all"]


@dataclass(frozen=True)
class AlignmentPlanN:
    """Result of matching index lists across N operands."""

    union_indices: tuple[IndexHandle, ...]
    contract_ids: tuple[IndexHandle, ...]


def alignn(operands):
    """Align N operands on their index union.

    Returns the aligned entry arrays (full rank ``2 + len(union)``) and the
    :class:`AlignmentPlanN`.  Plain operands take part as index-free tensors.
    """
    return _align([_operand(op) for op in operands], ())


def _align(ops, skip):
    """:func:`alignn`'s body, for tensors already simplified.  ``skip`` lists
    identities whose sizes may differ across operands (index concatenation)."""
    first: dict[int, IndexHandle] = {}  # identity -> its leftmost occurrence
    both: set[int] = set()
    sizes: dict[int, int] = {}
    for op in ops:
        for h, n in zip(op.indices, op.tensor_dims):
            if first.setdefault(h.id, h).variant != h.variant:
                both.add(h.id)
            if n != 1 and h.id not in skip and sizes.setdefault(h.id, n) != n:
                raise DimMismatchError(
                    "index {} has sizes {} and {} across operands", h, sizes[h.id], n)
    union = tuple(first.values())
    _check_degree(len(union))
    groups = [[0], [1]] + [[h] for h in union]
    aligned = [op.fold(groups) for op in ops]
    contract = tuple(h for h in union if h.id in both)
    return aligned, AlignmentPlanN(union, contract)


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
    for na, nb in zip(xa.shape[:2], xb.shape[:2]):
        if na != nb and na != 1 and nb != 1:
            raise DimMismatchError(
                f"matrix dimensions do not broadcast: {xa.shape[0]}x{xa.shape[1]} {op} "
                f"{xb.shape[0]}x{xb.shape[1]}"
            )
    if op in _ARITH:
        xa, xb = (x.astype(_arithmetic(x.dtype), copy=False) for x in (xa, xb))
        with _ieee():
            out = _ARITH[op](xa, xb)
    elif op in _RELATION:
        if op in _ORDERED and "c" in (xa.dtype.kind, xb.dtype.kind):
            raise ElementKindError(f"ordered comparison {op!r} undefined for complex values")
        out = _RELATION[op](xa, xb)
    elif op in _LOGICAL:
        out = _LOGICAL[op](xa != 0 if xa.dtype != np.bool_ else xa,
                           xb != 0 if xb.dtype != np.bool_ else xb)
    else:
        raise UnknownNameError(f"unknown entrywise operator {op!r}")
    result = Tensor._wrap(out, plan.union_indices)
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


def _decimals(p) -> int:
    """``round``'s precision: one integer of at most 308 in magnitude, the
    exponents of the powers of ten a float64 holds."""
    p = np.ravel(0 if p is None else p)
    if p.size != 1 or p.dtype.kind not in "biuf" or not abs(p[0]) <= 308 or p[0] % 1:
        raise BoundsError(f"round precision must be one integer in -308..308, got {p.tolist()}")
    return int(p[0])


def _round(x: np.ndarray, p: int) -> np.ndarray:
    """``np.round(x, p)``, except that a finite entry whose rounding
    overflows (``np.round`` scales by ``10**p`` first) is returned as it is:
    it has no digits below ``10**-p``.  Real and imaginary parts round apart."""
    if x.dtype.kind == "c":
        out = np.empty(x.shape, x.dtype)
        out.real, out.imag = _round(x.real, p), _round(x.imag, p)
        return out
    with _ieee():
        out = np.round(x, p)
    np.copyto(out, x, where=np.isinf(out))  # an infinite x rounds to itself
    return out


def ewise_unary(fn: str, t, p=None) -> Tensor:
    """Entrywise unary function; indices unchanged.

    ``round`` takes a decimal precision, 0 by default: one integer in
    -308..308, as a number or a one-entry array.  ``step`` maps positive
    entries to 1 and the rest, zero included, to 0, so ``step(-x)`` filters
    strictly negative values.
    """
    t = _operand(t)
    arr = t.entries
    if fn == "not":
        if arr.dtype != np.bool_:
            raise ElementKindError("logical NOT requires boolean elements")
        return Tensor._wrap(np.logical_not(arr), t.indices)
    arr = arr.astype(_arithmetic(arr.dtype), copy=False)  # booleans compute as reals
    if fn == "round":
        out = _round(arr, _decimals(p))
    elif fn == "step":
        if arr.dtype.kind == "c":
            raise ElementKindError("step is undefined for complex values")
        out = (arr > 0).astype(np.float64)
    elif fn in _UNARY:
        with _ieee():
            out = _UNARY[fn](arr)
    else:
        raise UnknownNameError(f"unknown entrywise function {fn!r}")
    return Tensor._wrap(out, t.indices)


def equal_all(operands) -> bool:
    """True iff all operands align to identical entries with no variant conflict.

    Any identity used in one variant by one operand and the complementary
    variant by another makes the answer False outright, matching how a column
    vector never equals its transposed row.  NaN compares unequal.
    """
    ops = [_operand(op) for op in operands]
    if len(ops) < 2:
        return True
    try:
        aligned, plan = _align(ops, ())
    except DimMismatchError:
        return False
    if plan.contract_ids:
        return False
    first = aligned[0]
    for other in aligned[1:]:
        if first.shape != other.shape:
            return False
        if not np.array_equal(first, other):
            return False
    return True
