"""Binary product and division as pagewise matrix kernels.

A matched identity with complementary variants names an inner product, a
matched identity with equal variants names an entrywise (page) pairing, and an
unmatched identity names an outer pairing.  Product and division run one
pipeline.  Each operand folds into a C-contiguous stack of matrices
(:meth:`Tensor._packed_fold`, which copies a strided fold in cache-sized slabs
and casts booleans to reals in the same copy); one kernel call (``matmul``,
LU or QR) serves every page; and :func:`_unfold` splits the kernel's output
into named axes and moves them into the result's order.

A fold has one leading axis per page index, then rows, then columns.  Outer
dimensions fold into the rows of the left operand and the columns of the
right one, inner dimensions fold into the opposing pair, and matrix rows and
columns fold in as the leading factor of their group.  A 1x1 operand's matrix
axes fold into its summed (product) or equation (division) group as size-1
axes, and the other operand's rows and columns join its outer group, so
scaling runs through the same kernel.  In a product, a page index of size 1
in one operand and of another size (0 included) in the other is an outer
index: it folds into the left operand's rows and the right one's columns,
after the leftovers, where the size-1 side's axis has no effect.  The
broadcast then costs no batch axis, and a pages-last operand often folds to
a free reshape.  Divisions keep one axis per page index, and a size-1 page
broadcasts inside the batched solve.

Divisions complement every index of the denominator operand before alignment,
so writing the denominator with complemented indices relative to the numerator
yields entrywise (pagewise) systems, and the solution carries the complemented
denominator leftovers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, SingularPageError
from .indices import IndexHandle
from .tensor import Tensor, _check_degree, _ieee, _operand

__all__ = ["AlignmentPlan2", "align2", "product", "solve_left", "solve_right"]


@dataclass(frozen=True)
class AlignmentPlan2:
    """Classification of two index lists for a pagewise binary operation.

    ``inner_ids`` are matched with complementary variants, ``page_ids`` with
    equal variants (variant recorded from the left operand); the outer lists
    hold each operand's leftovers.  ``result_indices`` is left-outer ++
    right-outer ++ pages.
    """

    inner_ids: tuple[IndexHandle, ...]
    page_ids: tuple[IndexHandle, ...]
    left_outer_ids: tuple[IndexHandle, ...]
    right_outer_ids: tuple[IndexHandle, ...]

    @property
    def result_indices(self) -> tuple[IndexHandle, ...]:
        return self.left_outer_ids + self.right_outer_ids + self.page_ids


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
    _check_degree(len(left_outer) + len(right_outer) + len(pages))
    return AlignmentPlan2(tuple(inner), tuple(pages), tuple(left_outer), tuple(right_outer))


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
            raise DimMismatchError("inner index {} has sizes {} and {}", h, na, nb)
    for h in plan.page_ids:
        na, nb = sa[h.id], sb[h.id]
        if na != nb and 1 not in (na, nb):
            raise DimMismatchError("page index {} has sizes {} and {}", h, na, nb)
    return sa, sb


def _unfold(x: np.ndarray, axes, order) -> np.ndarray:
    """Split ``x`` into named axes, given in order as ``(key, size)`` pairs,
    and transpose them into ``order``.  A key is an index id, or ``"r"`` /
    ``"c"`` for the result's rows/cols."""
    keys, sizes = zip(*axes)
    return x.reshape(sizes).transpose([keys.index(key) for key in order])


def product(a, b) -> Tensor:
    """The framework's ``*``: any mixture of inner, entrywise, and outer products.

    Matrix rows and columns take part in an ordinary matrix multiply when both
    operands have nontrivial rows/cols (conformance ``cols(a) == rows(b)``); a
    1x1 operand scales the other entrywise.  Result indices are the left
    leftovers, then the right leftovers, then the pages with the left
    operand's variants.
    """
    a = _operand(a)
    b = _operand(b)
    plan = align2(a.indices, b.indices)
    sa, sb = _check_matched_sizes(a, b, plan)
    # matrix axes of each operand's outer and summed groups
    if a.cols == b.rows:
        a_out, a_sum, b_sum, b_out = [0], [1], [0], [1]
    elif (a.rows, a.cols) == (1, 1):  # a 1x1 operand scales: its axes sum at size 1
        a_out, a_sum, b_sum, b_out = [], [0, 1], [], [0, 1]
    elif (b.rows, b.cols) == (1, 1):
        a_out, a_sum, b_sum, b_out = [0, 1], [], [0, 1], []
    else:
        raise DimMismatchError(
            f"matrix dimensions do not conform: {a.rows}x{a.cols} * {b.rows}x{b.cols}"
        )
    lo, ro, inner = plan.left_outer_ids, plan.right_outer_ids, plan.inner_ids
    # a page of size 1 on one side joins both outer groups after the
    # leftovers, so the other side's pages, whatever their size (0 included,
    # as numpy broadcasts), fold into one matrix multiply
    kept = [h for h in plan.page_ids if sa[h.id] == sb[h.id]]
    a_spread = [h for h in plan.page_ids if sa[h.id] != 1 and sb[h.id] == 1]
    b_spread = [h for h in plan.page_ids if sa[h.id] == 1 and sb[h.id] != 1]
    spread = a_spread + b_spread
    pages = [[h] for h in kept]
    xa = a._packed_fold(pages + [[*a_out, *lo, *spread], [*a_sum, *inner]])
    xb = b._packed_fold(pages + [[*b_sum, *inner], [*b_out, *ro, *spread]])
    with _ieee():
        out = np.matmul(xa, xb)  # (*kept, rows, cols), one blocked kernel per page
    # out's axes: kept pages, A's outer group, B's outer group
    da, db = a.entries.shape, b.entries.shape
    axes = ([(h.id, sa[h.id]) for h in kept]
            + [("rc"[x], da[x]) for x in a_out] + [(h.id, sa[h.id]) for h in (*lo, *a_spread)]
            + [("rc"[x], db[x]) for x in b_out] + [(h.id, sb[h.id]) for h in (*ro, *b_spread)])
    indices = plan.result_indices
    return Tensor._wrap(_unfold(out, axes, ["r", "c"] + [h.id for h in indices]), indices)


# -- division ----------------------------------------------------------------


def _complement_all(t: Tensor) -> Tensor:
    return Tensor._wrap(t.entries, [~h for h in t.indices])


def _page_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve A X = B per page; A (*pages, m, k), B (*pages, m, j).

    Page axes broadcast, so a size-1 page of either operand serves every page
    of the other.  Square pages use LU with partial pivoting, tall pages QR
    least squares.  Pages without unknowns, and an empty set of pages, have
    the empty solution, so a singular page broadcast over no pages is never
    solved.  Underdetermined pages are rejected and singular pages raise
    :class:`SingularPageError` with the offending page, counted row-major
    over the broadcast pages.
    """
    m, k = A.shape[-2:]
    if m < k:
        raise DimMismatchError(
            f"underdetermined pages: {m} equations for {k} unknowns"
        )
    pages = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    if k == 0 or 0 in pages:
        return np.zeros(pages + (k, B.shape[-1]), np.result_type(A, B))
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
    division the columns.  A 1x1 denominator scales entrywise: its matrix
    axes join the equations at size 1, and the numerator's rows and columns
    ride along as block dimensions.  Pages lead both folds, one axis per page
    index, and broadcast in the solve; ``np.linalg`` promotes a real/complex
    pair by itself.
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
    A = den._packed_fold(pages + [[*den_eq, *inner], [*den_free, *den_outer]])
    B = num._packed_fold(pages + [[*num_eq, *inner], [*num_free, *num_outer]])
    if A.shape[-2] != B.shape[-2]:
        raise DimMismatchError(
            f"equation counts disagree: {A.shape[-2]} vs {B.shape[-2]}"
        )
    X = _page_solve(A, B)
    # left division: result matrix is (den cols, num cols), right division
    # (num rows, den rows), and a 1x1 denominator's is the numerator's
    dd, dn = den.entries.shape, num.entries.shape
    axes = ([(h.id, n) for h, n in zip(plan.page_ids, X.shape[:-2])]
            + [("cr"[x], dd[x]) for x in den_free] + [(h.id, den_sizes[h.id]) for h in den_outer]
            + [("rc"[x], dn[x]) for x in num_free] + [(h.id, num_sizes[h.id]) for h in num_outer])
    first, second = (den_outer, num_outer) if den_left else (num_outer, den_outer)
    indices = first + second + plan.page_ids
    return Tensor._wrap(_unfold(X, axes, ["r", "c"] + [h.id for h in indices]), indices)


def solve_left(a, b) -> Tensor:
    """``a \\ b``: solve the linear system implied by ``product(a, u) == b``.

    Every index of the denominator ``a`` is complemented before alignment, and
    the solution carries those complemented leftovers first, then the
    numerator's leftovers, then the pages.
    """
    den = _complement_all(_operand(a))
    num = _operand(b)
    return _solve_common(den, num, den_left=True)


def solve_right(b, a) -> Tensor:
    """``b / a``: solve the system implied by ``product(u, a) == b``."""
    den = _complement_all(_operand(a))
    num = _operand(b)
    return _solve_common(den, num, den_left=False)
