"""The element kind of every unary result, pinned per operand kind.

A tensor holds booleans, float64 or complex128.  Arithmetic on booleans
yields float64, so a boolean sum is a float64 count and ``round``/``conj`` of
a boolean are float64; transposes and diagonals keep the operand's kind.
"""

import numpy as np
import pytest

from rtensor import (
    ewise_unary,
    fresh,
    page_ctranspose,
    page_diag,
    page_trace,
    page_transpose,
    with_indices,
)
from rtensor.errors import ElementKindError

F, C, B = np.float64, np.complex128, np.bool_
OPERANDS = {
    "bool": np.array([[[True], [False]], [[False], [True]]]),
    "real": np.array([[[0.5], [-1.5]], [[2.0], [3.25]]]),
    "complex": np.array([[[0.5 + 1j], [-1.5]], [[2j], [3.25 - 0.5j]]]),
}

# operation -> result dtype (or the error) for bool, real and complex operands
TABLE = {
    "neg": (F, F, C),
    "conj": (F, F, C),
    "abs": (F, F, F),
    "log": (F, F, C),
    "exp": (F, F, C),
    "round": (F, F, C),
    "step": (F, F, ElementKindError),
    "not": (B, ElementKindError, ElementKindError),
    "sum": (F, F, C),
    "page_trace": (F, F, C),
    "page_ctranspose": (F, F, C),
    "page_transpose": (B, F, C),
    "page_diag": (B, F, C),
}
PAGEWISE = {"page_trace": page_trace, "page_ctranspose": page_ctranspose,
            "page_transpose": page_transpose, "page_diag": page_diag}


def _apply(op, t, k):
    if op == "sum":
        return t.sum([k])
    if op in PAGEWISE:
        return PAGEWISE[op](t)
    return ewise_unary(op, t)


@pytest.mark.parametrize("kind", OPERANDS)
@pytest.mark.parametrize("op", TABLE)
def test_result_element_kind(op, kind):
    k = fresh()
    t = with_indices(OPERANDS[kind], [k])
    want = TABLE[op][list(OPERANDS).index(kind)]
    if isinstance(want, type) and issubclass(want, Exception):
        with pytest.raises(want):
            _apply(op, t, k)
        return
    got = _apply(op, t, k)
    assert got.entries.dtype == want
    assert not got.entries.flags.writeable
    assert got.entries.ndim == 2 + got.degree
