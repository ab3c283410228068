"""Pagewise generalizations of 2D kernels, plus index-directed concatenation.

Every operation here treats the first two array dimensions as a matrix and
loops (vectorized) over the flattened trailing dimensions as pages.
Transposition complements every index variant, conjugate transposition also
conjugates the entries; trace and diag act on rows and columns only and leave
the index list alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, IndexArityError, SubscriptKindError, UnknownIndexError
from .ewise import _align
from .indices import IndexHandle
from .tensor import Tensor, _arithmetic, _ieee, _operand

__all__ = [
    "page_transpose",
    "page_ctranspose",
    "page_trace",
    "page_diag",
    "concat",
]


def _flip(indices):
    return tuple(~h for h in indices)


def page_transpose(t) -> Tensor:
    """Swap rows and columns per page and complement every index variant."""
    t = _operand(t)
    return Tensor._wrap(np.swapaxes(t.entries, 0, 1), _flip(t.indices))


def page_ctranspose(t) -> Tensor:
    """Conjugate transpose per page; conjugates entries and complements variants."""
    t = _operand(t)
    x = np.swapaxes(t.entries, 0, 1)
    return Tensor._wrap(np.conj(x, dtype=_arithmetic(x.dtype)), _flip(t.indices))


def page_trace(t) -> Tensor:
    """Sum of the main diagonal per page; pages become 1x1, degree preserved."""
    t = _operand(t)
    if t.rows != t.cols:
        raise DimMismatchError(f"trace needs square pages, got {t.rows}x{t.cols}")
    with _ieee():
        tr = np.trace(t.entries, axis1=0, axis2=1, dtype=_arithmetic(t.entries.dtype))
    return Tensor._wrap(np.reshape(tr, (1, 1) + t.tensor_dims), t.indices)


def page_diag(t) -> Tensor:
    """Main diagonal per page as column-vector pages; degree preserved."""
    t = _operand(t)
    d = np.diagonal(t.entries, axis1=0, axis2=1)  # (*tensor_dims, min(r, c))
    d = np.moveaxis(d, -1, 0)
    return Tensor._wrap(d.reshape((d.shape[0], 1) + t.tensor_dims), t.indices)


def concat(where, operands) -> Tensor:
    """Concatenate tensors along an index or along a 0-based array axis.

    With an :class:`IndexHandle`, the identity must be present in every
    operand; remaining identities align on their union with broadcast
    expansion, and the result's size along the identity is the sum of operand
    sizes.  Identities appearing in both variants are summed after joining,
    mirroring the generic N-ary pipeline.  Rows and columns off the
    concatenation axis must match exactly.  An ``int`` axis is ``0`` for rows,
    ``1`` for columns, and past them names the union's identity at that
    position, whose sizes may differ across operands as with the index form.
    """
    ops = [_operand(op) for op in operands]
    if not ops:
        raise IndexArityError("concatenation needs at least one operand")
    union = list(dict.fromkeys(h.id for op in ops for h in op.indices))  # as _align's
    if isinstance(where, IndexHandle):
        for op in ops:
            if all(h.id != where.id for h in op.indices):
                raise UnknownIndexError("operand lacks concatenation index {}", where)
        ax = 2 + union.index(where.id)
    elif isinstance(where, (int, np.integer)):
        ax = int(where)
    else:
        raise SubscriptKindError(f"invalid concatenation axis {where!r}")
    if ax < 0:
        raise IndexArityError(f"concatenation axis {ax + 1} lies before the first dimension")
    if ax >= 2 + len(union):
        raise IndexArityError(
            f"concatenation axis {ax + 1} lies beyond the operands' "
            f"{2 + len(union)} dimensions"
        )
    joined = union[ax - 2:ax - 1] if ax >= 2 else []  # the identity joined, if any
    aligned, plan = _align(ops, joined)
    if len(ops) == 1:
        return Tensor._wrap(aligned[0], plan.union_indices)
    for d in {0, 1} - {ax}:
        sizes = sorted({x.shape[d] for x in aligned})
        if len(sizes) > 1:
            raise DimMismatchError(
                f"rows/cols must match exactly for concatenation, got sizes {sizes}"
            )
    # off the axis, size-1 dimensions replicate to the common size
    common = np.broadcast_shapes(*(x.shape[:ax] + (1,) + x.shape[ax + 1:] for x in aligned))
    joined = np.concatenate(
        [np.broadcast_to(x, common[:ax] + x.shape[ax:ax + 1] + common[ax + 1:]) for x in aligned],
        axis=ax,
    )
    result = Tensor._wrap(joined, plan.union_indices)
    if plan.contract_ids:
        result = result.sum(plan.contract_ids)
    return result
