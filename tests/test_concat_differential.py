"""Differential test: ``concat`` against the selector-construction oracle.

Cases join two or three operands along an index (named by its handle or by
its numeric axis) or along rows/cols.  The other identities may be missing from an operand or have size 1 in it, so
they broadcast; index orders and element kinds are drawn, and so is each
operand's variant of each other identity, so one held in both variants is
summed out after joining.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtensor import concat, fresh, fresh_many, with_indices
from rtensor.errors import DimMismatchError

from oracles import selector_concat

KINDS = ("bool", "real", "complex")


def _entries(rng, shape, kind):
    if kind == "bool":
        return rng.integers(0, 2, shape).astype(bool)
    real = rng.integers(-3, 4, shape).astype(float)
    return real + 1j * rng.integers(-3, 4, shape) if kind == "complex" else real


@st.composite
def concat_cases(draw):
    where = draw(st.sampled_from(("index", "axis", "rows", "cols")))
    others = fresh_many(draw(st.integers(0, 2)))
    size = {h.id: draw(st.sampled_from((0, 2, 3))) for h in others}
    j = fresh() if where in ("index", "axis") else None
    mat = [draw(st.integers(0, 3)), draw(st.integers(0, 3))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(draw(st.integers(2, 3))):
        shape = list(mat)
        if j is None:
            shape[("rows", "cols").index(where)] = draw(st.integers(0, 3))
        handles = [h if draw(st.booleans()) else ~h for h in others
                   if draw(st.sampled_from(("in", "in", "size 1", "missing"))) != "missing"]
        sizes = {h.id: size[h.id] if draw(st.booleans()) else 1 for h in handles}
        if j is not None:
            handles.append(j)
            sizes[j.id] = draw(st.integers(0, 3))
        order = draw(st.permutations(handles))
        entries = _entries(rng, tuple(shape) + tuple(sizes[h.id] for h in order),
                           draw(st.sampled_from(KINDS)))
        ops.append((entries, list(order)))
    return where, j, ops


@given(concat_cases())
@settings(max_examples=200, deadline=None)
def test_concat_matches_selector_oracle(case):
    where, j, ops = case
    want, union = selector_concat(ops, where if j is None else j.id)
    if where == "index":
        where = j
    elif where == "axis":  # the array axis of j's dimension, before any identity is summed out
        where = 2 + list(dict.fromkeys(h.id for _, x in ops for h in x)).index(j.id)
    got = concat(where, [with_indices(e, x) for e, x in ops])
    assert got.indices == tuple(union)
    assert got.entries.dtype == want.dtype
    np.testing.assert_array_equal(got.entries, want.reshape(got.entries.shape))


@pytest.mark.parametrize("where", ["rows", "cols"])
def test_concat_rejects_a_matrix_axis_that_differs_off_the_axis(where):
    # off the concatenation axis, rows and cols match exactly: no broadcast
    a, b = np.ones((2, 1)), np.ones((1, 2))
    with pytest.raises(DimMismatchError):
        concat(where, [a, b] if where == "cols" else [a.T, b.T])
