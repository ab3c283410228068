"""Numeric tensors with dual-variant indices and extended Einstein summation.

A tensor binds a dense array to an ordered list of index handles; each index
identity exists in two variants.  Repeating an identity with complementary
variants sums (inner product), with equal variants pairs entrywise, and
unmatched identities pair outer, which together with broadcasting additions,
relations, and concatenations extends the familiar elementwise matrix-vector
conventions.  Products and divisions execute as batched matrix kernels over
operands folded to stacks of matrices, one leading axis per page index, so
size-1 pages broadcast without copies; a small expression language exposes
the same operations as text.
"""

from .indices import (
    IndexHandle,
    as_false,
    as_true,
    complement,
    fresh,
    fresh_many,
    same_id,
    variant,
)
from .tensor import Shape, Tensor, assign, from_array, with_indices
from .ewise import AlignmentPlanN, alignn, equal_all, ewise_binary, ewise_unary
from .lattice import AlignmentPlan2, align2, product, solve_left, solve_right
from .pagewise import (
    concat,
    horzcat,
    page_cat,
    page_ctranspose,
    page_diag,
    page_trace,
    page_transpose,
    vertcat,
)
from . import errors

__all__ = [
    "IndexHandle",
    "fresh",
    "fresh_many",
    "complement",
    "same_id",
    "variant",
    "as_true",
    "as_false",
    "Tensor",
    "Shape",
    "from_array",
    "with_indices",
    "assign",
    "AlignmentPlanN",
    "alignn",
    "ewise_binary",
    "ewise_unary",
    "equal_all",
    "AlignmentPlan2",
    "align2",
    "product",
    "solve_left",
    "solve_right",
    "page_transpose",
    "page_ctranspose",
    "page_trace",
    "page_diag",
    "page_cat",
    "concat",
    "horzcat",
    "vertcat",
    "errors",
]
