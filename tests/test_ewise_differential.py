"""Differential test: ``ewise_binary`` against the loop oracle.

Cases draw every operator family (arithmetic, relations, logical), ids shared
with equal variants (entrywise) and with complementary variants (summed after
the operation), ids of one operand only, sizes 0 to 3, size-1 tensor and matrix axes on
either side, and bool, real and complex element kinds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from rtensor import ewise_binary, fresh_many, with_indices
from rtensor.errors import ElementKindError

from oracles import loop_ewise

KINDS = ("bool", "real", "complex")


def _numeric(x):
    return np.float64(x) if isinstance(x, np.bool_) else x


def _arith(fn):
    # arithmetic reads booleans as reals
    return lambda x, y: fn(_numeric(x), _numeric(y))


ORACLE = {
    "+": _arith(lambda x, y: x + y),
    "-": _arith(lambda x, y: x - y),
    ".*": _arith(lambda x, y: x * y),
    "./": _arith(lambda x, y: x / y),
    ".\\": _arith(lambda x, y: y / x),
    ".^": _arith(lambda x, y: x ** y),
    "==": lambda x, y: x == y,
    "~=": lambda x, y: x != y,
    "<": lambda x, y: x < y,
    ">": lambda x, y: x > y,
    "<=": lambda x, y: x <= y,
    ">=": lambda x, y: x >= y,
    "and": lambda x, y: np.bool_(x != 0 and y != 0),
    "or": lambda x, y: np.bool_(x != 0 or y != 0),
}
ORDERED = {"<", ">", "<=", ">="}


def _entries(rng, shape, kind):
    """Small integer-valued entries, so sums are exact in any order."""
    if kind == "bool":
        return rng.integers(0, 2, shape).astype(bool)
    real = rng.integers(-3, 4, shape).astype(float)
    return real + 1j * rng.integers(-3, 4, shape) if kind == "complex" else real


@st.composite
def ewise_cases(draw):
    n_same, n_mixed = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    n_a, n_b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    same, mixed, a_only, b_only = (fresh_many(n) for n in (n_same, n_mixed, n_a, n_b))
    a_handles, b_handles, a_sizes, b_sizes = [], [], [], []
    for h in same + mixed:
        h = h if draw(st.booleans()) else ~h
        size = draw(st.integers(0, 3))
        one = draw(st.sampled_from(("none", "none", "a", "b")))
        a_handles.append(h)
        b_handles.append(~h if h.id in {m.id for m in mixed} else h)
        a_sizes.append(1 if one == "a" else size)
        b_sizes.append(1 if one == "b" else size)
    for h in a_only:
        a_handles.append(h if draw(st.booleans()) else ~h)
        a_sizes.append(draw(st.integers(0, 3)))
    for h in b_only:
        b_handles.append(h if draw(st.booleans()) else ~h)
        b_sizes.append(draw(st.integers(0, 3)))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(handles, sizes):
        order = draw(st.permutations(range(len(handles))))
        mat = tuple(n if draw(st.booleans()) else 1 for n in (rows, cols))
        shape = mat + tuple(sizes[k] for k in order)
        return _entries(rng, shape, draw(st.sampled_from(KINDS))), [handles[k] for k in order]

    ae, ai = operand(a_handles, a_sizes)
    be, bi = operand(b_handles, b_sizes)
    return draw(st.sampled_from(sorted(ORACLE))), ae, ai, be, bi


@given(ewise_cases())
@settings(max_examples=300, deadline=None)
def test_ewise_binary_matches_loop_oracle(case):
    op, ae, ai, be, bi = case
    a, b = with_indices(ae, ai), with_indices(be, bi)
    if op in ORDERED and (np.iscomplexobj(ae) or np.iscomplexobj(be)):
        try:
            ewise_binary(op, a, b)
        except ElementKindError:
            return
        raise AssertionError(f"{op!r} accepted a complex operand")
    got = ewise_binary(op, a, b)
    with np.errstate(all="ignore"):
        want, kept = loop_ewise(ORACLE[op], ae, ai, be, bi)
    assert got.indices == tuple(kept)
    # the oracle sums booleans to integers; the engine keeps its three kinds
    want_kind = np.float64 if want.dtype.kind == "i" else want.dtype
    assert got.entries.dtype == want_kind
    np.testing.assert_allclose(got.entries, want.reshape(got.entries.shape), rtol=1e-12, atol=1e-9)
