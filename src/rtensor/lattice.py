"""Binary product and division as pagewise matrix kernels.

A matched identity with complementary variants names an inner product, a
matched identity with equal variants names an entrywise (page) pairing, and an
unmatched identity names an outer pairing.  Each operand folds by
permute-and-reshape (:meth:`Tensor.fold`) into a stack of matrices: one
leading axis per page index, then rows, then columns.  Outer dimensions fold
into the rows of the left operand and the columns of the right one, inner
dimensions fold into the opposing pair, and matrix rows and columns fold in
as the leading factor of their group.  Pages are never flattened, so a page
index of size 1 in one operand broadcasts inside the batched matrix multiply
(or solve) without being copied.  One kernel call then realizes any mixture
of inner, entrywise, and outer products.

Divisions complement every index of the denominator operand before alignment,
so writing the denominator with complemented indices relative to the numerator
yields entrywise (pagewise) systems, and the solution carries the complemented
denominator leftovers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatchError, SingularPageError
from .indices import IndexHandle
from .tensor import Tensor

__all__ = ["AlignmentPlan2", "align2", "product", "solve_left", "solve_right"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AlignmentPlan2:
    """Classification of two index lists for a pagewise binary operation.

    ``inner_ids`` are matched with complementary variants, ``page_ids`` with
    equal variants (variant recorded from the left operand); the outer lists
    hold each operand's leftovers.  ``result_indices`` is always
    left-outer ++ right-outer ++ pages.
    """

    inner_ids: tuple[IndexHandle, ...]
    page_ids: tuple[IndexHandle, ...]
    left_outer_ids: tuple[IndexHandle, ...]
    right_outer_ids: tuple[IndexHandle, ...]
    result_indices: tuple[IndexHandle, ...] = field(default=())

    def __post_init__(self):
        if not self.result_indices:
            object.__setattr__(
                self,
                "result_indices",
                self.left_outer_ids + self.right_outer_ids + self.page_ids,
            )


def align2(a_indices, b_indices) -> AlignmentPlan2:
    """Partition two index lists into inner, page, and outer groups."""
    b_by_id = {h.id: h for h in b_indices}
    inner = []
    pages = []
    left_outer = []
    for h in a_indices:
        other = b_by_id.get(h.id)
        if other is None:
            left_outer.append(h)
        elif other.variant == h.variant:
            pages.append(h)
        else:
            inner.append(h)
    matched = {h.id for h in inner} | {h.id for h in pages}
    right_outer = [h for h in b_indices if h.id not in matched]
    return AlignmentPlan2(tuple(inner), tuple(pages), tuple(left_outer), tuple(right_outer))


def _as_tensor(op) -> Tensor:
    if isinstance(op, Tensor):
        return op.simplify()
    return Tensor(op)


def _numeric(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float64) if arr.dtype == np.bool_ else arr


def _id_sizes(t: Tensor) -> dict[int, int]:
    shape = t.entries.shape
    return {h.id: shape[k] for k, h in enumerate(t.indices, 2)}


def _check_matched_sizes(a: Tensor, b: Tensor, plan: AlignmentPlan2):
    """Inner sizes must agree; page sizes must agree or be 1, which broadcasts.

    Returns each operand's id -> size map for the result layout."""
    sa, sb = _id_sizes(a), _id_sizes(b)
    for h in plan.inner_ids:
        na, nb = sa[h.id], sb[h.id]
        if na != nb:
            raise DimMismatchError(f"inner index {h!r} has sizes {na} and {nb}")
    for h in plan.page_ids:
        na, nb = sa[h.id], sb[h.id]
        if na != nb and 1 not in (na, nb):
            raise DimMismatchError(f"page index {h!r} has sizes {na} and {nb}")
    return sa, sb


# Result layouts over five parts (pages, matrix axes of operand A, leftovers
# of A, matrix axes of operand B, leftovers of B): matrix axes, then
# leftovers, then pages, with A's part before B's or after it.
_A_FIRST = (1, 3, 2, 4, 0)
_B_FIRST = (3, 1, 4, 2, 0)


def _unfold(x: np.ndarray, parts, order) -> np.ndarray:
    """Split ``x``'s axes into consecutive ``parts`` (one shape list each)
    and transpose the parts into ``order``."""
    axes, start = [], 0
    for p in parts:
        axes.append(range(start, start + len(p)))
        start += len(p)
    arr = x.reshape([n for p in parts for n in p])
    return arr.transpose([k for part in order for k in axes[part]])


def product(a, b) -> Tensor:
    """The framework's ``*``: any mixture of inner, entrywise, and outer products.

    Matrix rows and columns take part in an ordinary matrix multiply when both
    operands have nontrivial rows/cols (conformance ``cols(a) == rows(b)``); a
    1x1 operand scales the other entrywise.  Result indices are the left
    leftovers, then the right leftovers, then the pages with the left
    operand's variants.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    plan = align2(a.indices, b.indices)
    sa, sb = _check_matched_sizes(a, b, plan)
    if a.cols == b.rows:
        return _lattice_product(a, b, plan, sa, sb)
    if (a.rows, a.cols) == (1, 1) or (b.rows, b.cols) == (1, 1):
        return _expansion_product(a, b, plan)
    raise DimMismatchError(
        f"matrix dimensions do not conform: {a.rows}x{a.cols} * {b.rows}x{b.cols}"
    )


def _lattice_product(a: Tensor, b: Tensor, plan: AlignmentPlan2, sa, sb) -> Tensor:
    pages = [[h] for h in plan.page_ids]
    # contiguity keeps the batched kernel on its BLAS path
    xa = np.ascontiguousarray(_numeric(
        a.fold(pages + [[0, *plan.left_outer_ids], [1, *plan.inner_ids]])))
    xb = np.ascontiguousarray(_numeric(
        b.fold(pages + [[0, *plan.inner_ids], [1, *plan.right_outer_ids]])))
    out = np.matmul(xa, xb)  # (*pages, rows, cols), one blocked kernel per page
    parts = [out.shape[:-2], [a.rows], [sa[h.id] for h in plan.left_outer_ids],
             [b.cols], [sb[h.id] for h in plan.right_outer_ids]]
    return Tensor._wrap(_unfold(out, parts, _A_FIRST), plan.result_indices)


def _expansion_product(a: Tensor, b: Tensor, plan: AlignmentPlan2) -> Tensor:
    # one operand is a 1x1 matrix: entrywise scaling plus summation over inner dims
    order = plan.left_outer_ids + plan.right_outer_ids + plan.page_ids + plan.inner_ids
    groups = [[0], [1]] + [[h] for h in order]
    out = _numeric(a.fold(groups)) * _numeric(b.fold(groups))
    n_inner = len(plan.inner_ids)
    if n_inner:
        out = out.sum(axis=tuple(range(out.ndim - n_inner, out.ndim)))
    return Tensor._wrap(out, plan.result_indices)


# -- division ----------------------------------------------------------------


def _complement_all(t: Tensor) -> Tensor:
    return Tensor._wrap(t.entries, [~h for h in t.indices])


def _page_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B per page; A (*pages, m, k), B (*pages, m, j).

    Page axes broadcast, so a size-1 page of either operand serves every page
    of the other.  Square pages use LU with partial pivoting, tall pages QR
    least squares.  Underdetermined pages are rejected and singular pages
    raise :class:`SingularPageError` with the offending page, counted
    row-major over the broadcast pages.
    """
    m, k = A.shape[-2:]
    if m < k:
        raise DimMismatchError(
            f"underdetermined pages: {m} equations for {k} unknowns"
        )
    if log.isEnabledFor(logging.DEBUG):
        for p, c in enumerate(np.linalg.cond(A).ravel()):
            log.debug("page %d condition estimate %.3e", p, c)
    pages = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    if m == k:
        try:
            return np.linalg.solve(A, B)
        except np.linalg.LinAlgError:
            for idx in np.ndindex(A.shape[:-2]):
                try:
                    np.linalg.inv(A[idx])  # the same LU test as solve
                except np.linalg.LinAlgError:
                    raise _singular("singular square", idx, pages) from None
            raise
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    scale = np.abs(R).max(axis=(-2, -1))
    bad = diag.min(axis=-1) <= np.finfo(np.float64).eps * np.maximum(scale, 1) * m
    if bad.any():
        raise _singular("rank-deficient", np.unravel_index(np.argmax(bad), bad.shape), pages)
    rhs = np.matmul(np.conj(np.swapaxes(Q, -1, -2)), B)
    return np.linalg.solve(R, rhs)


def _singular(what: str, idx, pages) -> SingularPageError:
    """The error for A's first bad page ``idx``, numbered row-major over the
    broadcast ``pages``.  It is the first bad page there too, because each
    size-1 page axis of A is read at position 0 first."""
    page = int(np.ravel_multi_index(idx, pages))
    return SingularPageError(f"{what} page {page}", page=page)


def _solve_common(den: Tensor, num: Tensor, den_left: bool):
    """Shared left/right division after the denominator is complemented.

    Per page the system matrix folds (equation-matrix-dim, inner dims) into
    rows and (free-matrix-dim, denominator leftovers) into columns; the
    numerator folds likewise with its leftovers as right-hand-side blocks.
    For left division the equation matrix dimension is the rows, for right
    division the columns.  A 1x1 denominator scales entrywise, in which case
    the numerator's rows and columns ride along as block dimensions.  Pages
    lead both folds, one axis per page index, and broadcast in the solve.
    """
    if den_left:
        plan = align2(den.indices, num.indices)
        den_outer, num_outer = plan.left_outer_ids, plan.right_outer_ids
        den_sizes, num_sizes = _check_matched_sizes(den, num, plan)
    else:
        plan = align2(num.indices, den.indices)
        num_outer, den_outer = plan.left_outer_ids, plan.right_outer_ids
        num_sizes, den_sizes = _check_matched_sizes(num, den, plan)

    inner, pages = plan.inner_ids, [[h] for h in plan.page_ids]
    if (den.rows, den.cols) == (1, 1) and (num.rows, num.cols) != (1, 1):
        den_eq, den_free, num_eq, num_free = [0, 1], [], [], [0, 1]
    else:
        eq, free = (0, 1) if den_left else (1, 0)
        den_eq, den_free, num_eq, num_free = [eq], [free], [eq], [free]
    A = den.fold(pages + [[*den_eq, *inner], [*den_free, *den_outer]])
    B = num.fold(pages + [[*num_eq, *inner], [*num_free, *num_outer]])
    if A.shape[-2] != B.shape[-2]:
        raise DimMismatchError(
            f"equation counts disagree: {A.shape[-2]} vs {B.shape[-2]}"
        )
    dtype = np.result_type(A.dtype, B.dtype, np.float64)  # booleans solve as reals
    X = _page_solve(A.astype(dtype, copy=False), B.astype(dtype, copy=False))
    # left division: result matrix is (den cols, num cols), right division
    # (num rows, den rows), and a 1x1 denominator's is the numerator's
    parts = [X.shape[:-2], [den.entries.shape[x] for x in den_free],
             [den_sizes[h.id] for h in den_outer],
             [num.entries.shape[x] for x in num_free], [num_sizes[h.id] for h in num_outer]]
    if den_left:
        return Tensor._wrap(_unfold(X, parts, _A_FIRST), den_outer + num_outer + plan.page_ids)
    return Tensor._wrap(_unfold(X, parts, _B_FIRST), num_outer + den_outer + plan.page_ids)


def solve_left(a, b) -> Tensor:
    """``a \\ b``: solve the linear system implied by ``product(a, u) == b``.

    Every index of the denominator ``a`` is complemented before alignment, and
    the solution carries those complemented leftovers first, then the
    numerator's leftovers, then the pages.
    """
    den = _complement_all(_as_tensor(a))
    num = _as_tensor(b)
    return _solve_common(den, num, den_left=True)


def solve_right(b, a) -> Tensor:
    """``b / a``: solve the system implied by ``product(u, a) == b``."""
    den = _complement_all(_as_tensor(a))
    num = _as_tensor(b)
    return _solve_common(den, num, den_left=False)
