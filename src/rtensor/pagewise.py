"""Pagewise generalizations of 2D kernels, plus index-directed concatenation.

Every operation here treats the first two array dimensions as a matrix and
loops (vectorized) over the flattened trailing dimensions as pages.
Transposition complements every index variant, conjugate transposition also
conjugates the entries; trace and diag act on rows and columns only and leave
the index list alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, IndexArityError, UnknownIndexError
from .ewise import alignn
from .indices import IndexHandle
from .tensor import Tensor

__all__ = [
    "page_transpose",
    "page_ctranspose",
    "page_trace",
    "page_diag",
    "page_cat",
    "concat",
    "horzcat",
    "vertcat",
]


def _flip(indices):
    return tuple(~h for h in indices)


def page_transpose(t: Tensor) -> Tensor:
    """Swap rows and columns per page and complement every index variant."""
    return Tensor._wrap(np.swapaxes(t.entries, 0, 1), _flip(t.indices))


def page_ctranspose(t: Tensor) -> Tensor:
    """Conjugate transpose per page; conjugates entries and complements variants."""
    return Tensor(np.conj(np.swapaxes(t.entries, 0, 1)), _flip(t.indices))


def page_trace(t: Tensor) -> Tensor:
    """Sum of the main diagonal per page; pages become 1x1, degree preserved."""
    if t.rows != t.cols:
        raise DimMismatchError(f"trace needs square pages, got {t.rows}x{t.cols}")
    tr = np.trace(t.entries, axis1=0, axis2=1)
    return Tensor(np.asarray(tr).reshape((1, 1) + t.tensor_dims), t.indices)


def page_diag(t: Tensor) -> Tensor:
    """Main diagonal per page as column-vector pages; degree preserved."""
    d = np.diagonal(t.entries, axis1=0, axis2=1)  # (*tensor_dims, min(r, c))
    d = np.moveaxis(d, -1, 0)
    return Tensor._wrap(d.reshape((d.shape[0], 1) + t.tensor_dims), t.indices)


def _resolve_axis(axis) -> int:
    if axis == "rows":
        return 0
    if axis == "cols":
        return 1
    if isinstance(axis, (int, np.integer)):
        if axis < 0:
            raise IndexArityError(
                f"concatenation axis {axis + 1} lies before the first dimension"
            )
        return int(axis)
    raise ValueError(f"invalid concatenation axis {axis!r}")


def page_cat(axis, arrays) -> np.ndarray:
    """Concatenate plain arrays along an axis with outer (broadcast) expansion.

    Singleton dimensions in the third or higher position replicate up to the
    common size; rows and columns must match exactly unless they are the
    concatenation axis.
    """
    ax = _resolve_axis(axis)
    arrs = [np.asarray(a) for a in arrays]
    nd = max(max(a.ndim for a in arrs), ax + 1, 2)
    arrs = [a.reshape(a.shape + (1,) * (nd - a.ndim)) for a in arrs]
    for d in range(nd):
        if d == ax:
            continue
        sizes = {a.shape[d] for a in arrs}
        nonunit = sorted(s for s in sizes if s != 1)
        if len(nonunit) > 1:
            raise DimMismatchError(f"dimension {d} has incompatible sizes {nonunit}")
        if d < 2 and len(sizes) > 1:
            raise DimMismatchError(
                f"rows/cols must match exactly for concatenation, got sizes {sorted(sizes)}"
            )
    expanded = []
    for a in arrs:
        target = list(a.shape)
        for d in range(2, nd):
            if d == ax:
                continue
            want = max(b.shape[d] for b in arrs)
            if a.shape[d] == 1 and want > 1:
                target[d] = want
        expanded.append(np.broadcast_to(a, target))
    return np.concatenate(expanded, axis=ax)


def concat(where, operands) -> Tensor:
    """Concatenate tensors along an index or along the rows/cols axis.

    With an :class:`IndexHandle`, the identity must be present in every
    operand; remaining identities align on their union with broadcast
    expansion, and the result's size along the identity is the sum of operand
    sizes.  Identities appearing in both variants are summed after joining,
    mirroring the generic N-ary pipeline.
    """
    ops = [op if isinstance(op, Tensor) else Tensor(np.asarray(op)) for op in operands]
    if isinstance(where, IndexHandle):
        ops = [op.simplify() for op in ops]
        for op in ops:
            if all(h.id != where.id for h in op.indices):
                raise UnknownIndexError(f"operand lacks concatenation index {where!r}")
        aligned, plan = alignn(ops, skip_size_check=(where.id,))
        ax = 2 + next(k for k, h in enumerate(plan.union_indices) if h.id == where.id)
    else:
        aligned, plan = alignn(ops)
        ax = _resolve_axis(where)
    if len(ops) == 1:
        return Tensor._wrap(aligned[0], plan.union_indices)
    if ax >= 2 + len(plan.union_indices):
        raise IndexArityError(
            f"concatenation axis {ax + 1} lies beyond the operands' "
            f"{2 + len(plan.union_indices)} dimensions"
        )
    joined = page_cat(ax, aligned)
    result = Tensor._wrap(joined, plan.union_indices)
    if plan.contract_ids:
        result = result.sum(plan.contract_ids)
    return result


def horzcat(*operands) -> Tensor:
    """Column concatenation, the bracket form ``[a b]``."""
    return concat("cols", list(operands))


def vertcat(*operands) -> Tensor:
    """Row concatenation, the bracket form ``[a; b]``."""
    return concat("rows", list(operands))
