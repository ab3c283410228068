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

from .indices import IndexHandle, fresh, fresh_many
from .tensor import Tensor, assign, from_array, with_indices
from .ewise import alignn, equal_all, ewise_binary, ewise_unary
from .lattice import align2, product, solve_left, solve_right
from .pagewise import concat, page_ctranspose, page_diag, page_trace, page_transpose
from . import errors

__all__ = [
    "IndexHandle",
    "fresh",
    "fresh_many",
    "Tensor",
    "from_array",
    "with_indices",
    "assign",
    "alignn",
    "ewise_binary",
    "ewise_unary",
    "equal_all",
    "align2",
    "product",
    "solve_left",
    "solve_right",
    "page_transpose",
    "page_ctranspose",
    "page_trace",
    "page_diag",
    "concat",
    "errors",
]
