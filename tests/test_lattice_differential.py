"""Differential tests: products and divisions against the loop oracles.

Cases draw random variants, index orders, matrix shapes and element kinds,
sizes 0 to 3, and give page indices size 1 on either operand so the kernels
must broadcast.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rtensor import fresh, fresh_many, product, solve_left, solve_right, with_indices
from rtensor.errors import SingularPageError

from oracles import loop_product, loop_solve

KINDS = ("bool", "real", "complex")


def _entries(rng, shape, kind, integer):
    """Random entries of one element kind; integer-valued when ``integer``."""
    if kind == "bool":
        return rng.integers(0, 2, shape).astype(bool)

    def draw():
        return rng.integers(-3, 4, shape).astype(float) if integer else rng.standard_normal(shape)

    return draw() + 1j * draw() if kind == "complex" else draw()


@st.composite
def _pages(draw, n):
    """``n`` page sizes per operand; each page may be size 1 on one side."""
    a_sizes, b_sizes = [], []
    for _ in range(n):
        size = draw(st.integers(0, 3))
        one = draw(st.sampled_from(("none", "none", "a", "b")))
        a_sizes.append(1 if one == "a" else size)
        b_sizes.append(1 if one == "b" else size)
    return a_sizes, b_sizes


def _split(draw, n, slots):
    """``n`` as an ordered product of ``slots`` factors (``slots >= 1``)."""
    out = []
    for _ in range(slots - 1):
        f = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        out.append(f)
        n //= f
    return out + [n]


def _operand(draw, rng, mat, handles, sizes, kind, integer):
    """A tensor over ``handles`` in a drawn order, with the given sizes."""
    order = draw(st.permutations(range(len(handles))))
    shape = tuple(mat) + tuple(sizes[k] for k in order)
    entries = _entries(rng, shape, kind, integer)
    return entries, [handles[k] for k in order]


def _variants(draw, handles):
    return [h if draw(st.booleans()) else ~h for h in handles]


@st.composite
def product_cases(draw):
    n_inner, n_page = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    n_a, n_b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    inner = _variants(draw, fresh_many(n_inner))
    pages = _variants(draw, fresh_many(n_page))
    a_out = _variants(draw, fresh_many(n_a))
    b_out = _variants(draw, fresh_many(n_b))
    inner_sizes = [draw(st.integers(0, 3)) for _ in inner]
    pa, pb = draw(_pages(n_page))
    mode = draw(st.sampled_from(("matmul", "scale_a", "scale_b")))
    r, q, c = (draw(st.integers(0, 3)) for _ in range(3))
    a_mat, b_mat = {"matmul": ((r, q), (q, c)), "scale_a": ((1, 1), (r, c)),
                    "scale_b": ((r, c), (1, 1))}[mode]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ae, ai = _operand(
        draw, rng, a_mat, inner + pages + a_out,
        inner_sizes + pa + [draw(st.integers(0, 3)) for _ in a_out],
        draw(st.sampled_from(KINDS)), integer=True)
    be, bi = _operand(
        draw, rng, b_mat, [~h for h in inner] + pages + b_out,
        inner_sizes + pb + [draw(st.integers(0, 3)) for _ in b_out],
        draw(st.sampled_from(KINDS)), integer=True)
    return ae, ai, be, bi


@given(product_cases())
@settings(max_examples=200, deadline=None)
def test_product_matches_loop_oracle(case):
    ae, ai, be, bi = case
    got = product(with_indices(ae, ai), with_indices(be, bi))
    want, want_idx = loop_product(ae, ai, be, bi)
    assert got.indices == tuple(want_idx)
    assert got.entries.dtype == want.dtype
    # integer-valued entries: every partial sum is exact in any order
    np.testing.assert_array_equal(got.entries, want.reshape(got.entries.shape))


@st.composite
def solve_cases(draw):
    """A square or tall system, per page, of ``product(a, u) == b``."""
    side = draw(st.sampled_from(("left", "right")))
    blocks = draw(st.booleans())  # a 1x1 denominator against a matrix numerator
    n_unknowns = draw(st.integers(1, 4))
    n_eqs = n_unknowns + draw(st.sampled_from((0, 0, 1, 2)))
    n_inner = draw(st.integers(1 if blocks else 0, 2))
    n_unk_ids = draw(st.integers(1 if blocks else 0, 2))
    eq = ([1] if blocks else []) + _split(draw, n_eqs, n_inner + (0 if blocks else 1))
    free = ([1] if blocks else []) + _split(draw, n_unknowns, n_unk_ids + (0 if blocks else 1))
    n_page, n_rhs = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    inner = _variants(draw, fresh_many(n_inner))
    pages = _variants(draw, fresh_many(n_page))
    unknown = _variants(draw, fresh_many(n_unk_ids))
    rhs = _variants(draw, fresh_many(n_rhs))
    pa, pb = draw(_pages(n_page))
    other = draw(st.integers(0, 3))
    if blocks:
        a_mat, b_mat = (1, 1), (draw(st.integers(0, 3)), other)
    elif side == "left":
        a_mat, b_mat = (eq[0], free[0]), (eq[0], other)
    else:
        a_mat, b_mat = (free[0], eq[0]), (other, eq[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ae, ai = _operand(draw, rng, a_mat, inner + [~h for h in pages] + unknown,
                      eq[1:] + pa + free[1:], draw(st.sampled_from(KINDS)), integer=False)
    be, bi = _operand(draw, rng, b_mat, inner + pages + rhs,
                      eq[1:] + pb + [draw(st.integers(0, 3)) for _ in rhs],
                      draw(st.sampled_from(KINDS)), integer=False)
    return side, ae, ai, be, bi


# A tall boolean right division whose exact least-squares solution is 0: both
# the oracle and the engine return rounding noise of about 1e-16.
_h4, _h5, _h6, _h7 = fresh_many(4)
_ZERO_SOLUTION = (
    "right",
    np.array([[[[[[0, 0], [1, 0]]]], [[[[1, 1], [1, 1]]]], [[[[0, 0], [0, 0]]]]],
              [[[[[1, 0], [1, 0]]]], [[[[0, 1], [1, 0]]]], [[[[1, 0], [1, 0]]]]]], dtype=bool),
    [~_h4, ~_h6, ~_h7, ~_h5],
    np.array([[[[0, 1]], [[0, 0]], [[0, 1]]]], dtype=bool),
    [~_h4, ~_h5],
)


@given(solve_cases())
@example(_ZERO_SOLUTION)
@settings(max_examples=200, deadline=None)
def test_division_matches_per_page_solve(case):
    side, ae, ai, be, bi = case
    want, want_idx, cond = loop_solve(ae, ai, be, bi, side)
    assume(cond < 1e6)
    a, b = with_indices(ae, ai), with_indices(be, bi)
    got = solve_left(a, b) if side == "left" else solve_right(b, a)
    assert got.indices == tuple(want_idx)
    assert got.entries.dtype == want.dtype
    want = want.reshape(got.entries.shape)
    # the data set the scale: a solution of exact zeros comes out as rounding
    # noise the size of |b| / |a|, however small |want| is
    a_max = np.abs(ae).max(initial=0)
    scale = max(np.abs(want).max(initial=0), np.abs(be).max(initial=0) / a_max if a_max else 0)
    np.testing.assert_allclose(got.entries, want, rtol=1e-8, atol=1e-8 * scale)


@pytest.mark.parametrize("tall", [False, True])
def test_singular_broadcast_page_counts_result_pages(tall):
    # the denominator has size 1 on page k2 and is singular at k1 = 1, so the
    # first singular page of the (k1, k2) = 2 x 3 result is k1 = 1, k2 = 0
    k1, k2 = fresh_many(2)
    n_eq = 3 if tall else 2
    den = np.ones((n_eq, 2, 2, 1))
    den[:, :, 0, 0] = np.eye(n_eq, 2)
    den[:, 1, 1, 0] = 0.0
    num = np.ones((n_eq, 1, 2, 3))
    with pytest.raises(SingularPageError) as err:
        solve_left(with_indices(den, [~k1, ~k2]), with_indices(num, [k1, k2]))
    assert err.value.page == 3


@pytest.mark.parametrize("tall", [False, True])
def test_a_singular_page_broadcast_over_no_pages_is_never_solved(tall):
    # the denominator's one page is singular; the numerator has 0 pages on p
    p = fresh()
    n_eq = 3 if tall else 2
    got = solve_left(with_indices(np.ones((n_eq, 2, 1)), [~p]),
                     with_indices(np.ones((n_eq, 1, 0)), [p]))
    assert got.entries.shape == (2, 1, 0)


def test_singular_page_counts_in_page_index_order():
    # pages flatten row-major in the order the left operand lists them
    k1, k2, j = fresh(), fresh(), fresh()
    den = np.ones((2, 2, 3, 2))
    den[:, :, :, :] = np.eye(2)[:, :, None, None]
    den[:, :, 2, 0] = 0.0
    num = np.ones((2, 1, 2, 2, 3))
    with pytest.raises(SingularPageError) as err:
        solve_left(with_indices(den, [~k2, ~k1]), with_indices(num, [j, k1, k2]))
    assert err.value.page == 4
