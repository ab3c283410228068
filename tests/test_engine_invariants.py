"""The layout invariant every engine result keeps.

Each result's ``entries`` is read-only, has ``ndim == 2 + degree``, and holds
bool, float64 or complex128 elements.  Results built by the engine itself
skip the public constructor's checks, so this property is what keeps them
valid.  Cases draw element kinds, matrix shapes, variants and size-1 axes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtensor import (
    Tensor,
    assign,
    concat,
    ewise_binary,
    ewise_unary,
    fresh_many,
    page_ctranspose,
    page_diag,
    page_trace,
    page_transpose,
    product,
    solve_left,
    solve_right,
    with_indices,
)
from rtensor.errors import SubscriptKindError, UnknownNameError

KINDS = ("bool", "real", "complex")


def _entries(rng, shape, kind):
    if kind == "bool":
        return rng.integers(0, 2, shape).astype(bool)
    real = rng.standard_normal(shape)
    if shape[0] == shape[1]:  # diagonally dominant pages solve well
        real += 3 * np.eye(shape[0]).reshape(shape[:2] + (1,) * (len(shape) - 2))
    return real + 1j * rng.standard_normal(shape) if kind == "complex" else real


def _holds(t):
    assert isinstance(t, Tensor)
    assert not t.entries.flags.writeable
    assert t.entries.ndim == 2 + t.degree
    assert t.entries.dtype in (np.bool_, np.float64, np.complex128)


class _Case:
    """Random operands over a shared pool of index ids."""

    def __init__(self, seed, kinds):
        self.rng = np.random.default_rng(seed)
        self.kinds = iter(kinds)
        self.ids = fresh_many(3)
        self.size = {h.id: int(self.rng.integers(1, 4)) for h in self.ids}

    def tensor(self, mat, handles, size_one=(), solvable=False):
        shape = tuple(mat) + tuple(1 if h.id in size_one else self.size[h.id] for h in handles)
        kind = next(self.kinds)
        if solvable and kind == "bool":  # a random boolean page is often singular
            kind = "real"
        return with_indices(_entries(self.rng, shape, kind), handles)


def _product(c):
    i, j, k = c.ids
    return product(c.tensor((2, 3), [i, ~j]), c.tensor((3, 2), [j, k, i], size_one={k.id}))


def _scaling_product(c):
    i, j, _ = c.ids
    return product(c.tensor((1, 1), [~j, i]), c.tensor((2, 3), [j]))


def _solve_left(c):
    i, _, k = c.ids
    return solve_left(c.tensor((2, 2), [~k], solvable=True), c.tensor((2, 3), [k, i]))


def _solve_right(c):
    i, _, k = c.ids
    return solve_right(c.tensor((3, 2), [k, i]), c.tensor((2, 2), [~k], solvable=True))


def _ewise(op):
    def run(c):
        i, j, k = c.ids
        return ewise_binary(op, c.tensor((2, 1), [i, ~j]), c.tensor((1, 3), [j, k]))

    return run


def _unary(fn):
    def run(c):
        i, j, _ = c.ids
        t = c.tensor((2, 2), [i, j])
        if fn == "not":
            t = ewise_binary(">", ewise_unary("abs", t), 0.5)
        return ewise_unary(fn, t)

    return run


def _reindex(repeat, mixed):
    def run(c):
        i, j, _ = c.ids
        n = c.size[i.id]
        shape = (2, 2) + (n,) * repeat + (c.size[j.id],)
        t = with_indices(_entries(c.rng, shape, next(c.kinds)), fresh_many(repeat + 1))
        subs = [i] * repeat + [j]
        if mixed:
            subs[1] = ~i
        return t.reindex(subs)

    return run


def _assign(c):
    i, j, k = c.ids
    return assign([~j, k, i], c.tensor((2, 3), [i, j]))


def _pagewise(fn):
    def run(c):
        i, j, _ = c.ids
        return fn(c.tensor((3, 3), [i, j]))

    return run


def _concat_index(c):
    i, j, k = c.ids
    return concat(i, [c.tensor((2, 1), [i, j]), c.tensor((2, 1), [k, i], size_one={k.id})])


def _concat_axis(c):
    # an int axis past rows and columns joins the union's first identity
    i, j, k = c.ids
    return concat(2, [c.tensor((2, 1), [i, j]), c.tensor((2, 1), [i, ~k], size_one={i.id})])


def _concat_matrix(axis):
    def run(c):
        i, j, _ = c.ids
        return concat(axis, [c.tensor((2, 2), [i]), c.tensor((2, 2), [j, i])])

    return run


OPERATIONS = {
    "product": _product,
    "scaling product": _scaling_product,
    "solve_left": _solve_left,
    "solve_right": _solve_right,
    **{f"ewise {op}": _ewise(op) for op in ("+", "./", ".^", "==", "<", "and")},
    **{f"unary {fn}": _unary(fn) for fn in ("neg", "conj", "abs", "exp", "round", "step", "not")},
    **{f"reindex x{r}{' mixed' if m else ''}": _reindex(r, m) for r in (2, 3) for m in (False, True)},
    "assign": _assign,
    "page_transpose": _pagewise(page_transpose),
    "page_ctranspose": _pagewise(page_ctranspose),
    "page_trace": _pagewise(page_trace),
    "page_diag": _pagewise(page_diag),
    "concat index": _concat_index,
    "concat axis": _concat_axis,
    "concat cols": _concat_matrix(1),
    "concat rows": _concat_matrix(0),
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(st.sampled_from(KINDS), min_size=4, max_size=4))
@settings(max_examples=15, deadline=None)
def test_results_keep_the_layout_invariant(name, seed, kinds):
    op = OPERATIONS[name]
    if name in ("unary step", "ewise <") and "complex" in kinds:
        kinds = ["real" if k == "complex" else k for k in kinds]
    _holds(op(_Case(seed, kinds)))


@pytest.mark.parametrize("call, error", [
    (lambda: ewise_binary("foo", 1, 2), UnknownNameError),
    (lambda: ewise_unary("foo", 1), UnknownNameError),
    (lambda: concat("diag", [np.ones(2)]), SubscriptKindError),
], ids=["ewise_binary", "ewise_unary", "concat"])
def test_an_unknown_operation_name_raises_a_typed_error(call, error):
    with pytest.raises(error):
        call()
