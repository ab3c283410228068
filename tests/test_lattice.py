import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from rtensor import (
    Tensor,
    align2,
    assign,
    ewise_binary,
    fresh,
    fresh_many,
    page_ctranspose,
    product,
    solve_left,
    solve_right,
    with_indices,
)
from rtensor.errors import DimMismatchError, SingularPageError

from oracles import loop_product


def vec(values, handle):
    return with_indices(np.asarray(values, dtype=float).reshape(1, 1, -1), [handle])


def scal(arr, idx):
    arr = np.asarray(arr)
    return with_indices(arr.reshape((1, 1) + arr.shape), idx)


def assert_tensors_match(got, want_entries, want_indices, rtol=0.0):
    assert [h.id for h in got.indices] == [h.id for h in want_indices]
    assert [h.variant for h in got.indices] == [h.variant for h in want_indices]
    if rtol:
        np.testing.assert_allclose(
            got.entries, np.asarray(want_entries).reshape(got.entries.shape), rtol=rtol
        )
    else:
        np.testing.assert_array_equal(
            got.entries, np.asarray(want_entries).reshape(got.entries.shape)
        )


# -- align2 ------------------------------------------------------------------


def test_align2_reduced_mixed_pattern():
    i, r, t = fresh_many(3)
    plan = align2([i, ~r], [r, t, i])
    assert [h.id for h in plan.inner_ids] == [r.id]
    assert [h.id for h in plan.page_ids] == [i.id]
    assert plan.left_outer_ids == ()
    assert [h.id for h in plan.right_outer_ids] == [t.id]


def test_align2_all_outer():
    i, j = fresh_many(2)
    plan = align2([i], [j])
    assert plan.inner_ids == () and plan.page_ids == ()
    assert [h.id for h in plan.left_outer_ids] == [i.id]
    assert [h.id for h in plan.right_outer_ids] == [j.id]


def test_align2_equal_variants_are_pages():
    k = fresh()
    plan = align2([k], [k])
    assert plan.page_ids == (k,)
    assert plan.inner_ids == ()


def test_align2_result_order_and_page_variant():
    i, r, t = fresh_many(3)
    plan = align2([~i, ~r], [r, t, ~i])
    # pages take the left operand's variant
    assert plan.result_indices == (t, ~i)
    with pytest.raises(AttributeError):  # derived from the groups, never stored
        plan.result_indices = ()


# -- fold onto a rows x cols x pages lattice -------------------------------------


def lattice_groups(plan, side):
    """Fold groups of one product operand as a rows x cols x pages lattice."""
    if side == "left":
        rows, cols = plan.left_outer_ids, plan.inner_ids
    else:
        rows, cols = plan.inner_ids, plan.right_outer_ids
    return [[0, *rows], [1, *cols], list(plan.page_ids)]


def test_pagewise_matrix_maps_unchanged():
    k = fresh()
    arr = np.random.rand(100, 100, 10)
    t = with_indices(arr, [k])
    plan = align2([k], [k])
    lat = t.fold(lattice_groups(plan, "left"))
    assert lat.shape == (100, 100, 10)
    np.testing.assert_array_equal(lat, arr)


def test_lattice_roundtrip_identity():
    i, j, k = fresh_many(3)
    t = with_indices(np.random.rand(2, 3, 4, 5, 6), [i, j, k])
    plan = align2([i, j, k], [~j, k])
    for side in ("left", "right"):
        use = t if side == "left" else with_indices(np.random.rand(2, 3, 5, 6), [~j, k])
        groups = lattice_groups(plan, side)
        lat = use.fold(groups)
        ids = [h.id for h in use.indices]
        axes = [g if isinstance(g, int) else 2 + ids.index(g.id) for grp in groups for g in grp]
        mid = [use.entries.shape[a] for a in axes]
        back = Tensor(np.transpose(lat.reshape(mid), np.argsort(axes)), use.indices)
        np.testing.assert_array_equal(back.entries, use.entries)
        assert back.indices == use.indices


def test_degree_two_scalar_lattice_shape():
    p, q = fresh_many(2)
    m, n = 3, 4
    t = with_indices(np.random.rand(1, 1, m, n), [p, q])
    plan = align2([p, q], [~q])  # q inner, p left-outer
    lat = t.fold(lattice_groups(plan, "left"))
    assert lat.shape == (m, n, 1)


# -- product ---------------------------------------------------------------------


def test_ternary_inner_product_chain():
    i = fresh()
    a, b, c = vec([1, 2], i), vec([3, 4], i), vec([5, 6], ~i)
    got = product(product(a, b), c)
    assert got.degree == 0
    assert got.entries.ravel()[0] == 63.0


def test_outer_product_table():
    i, j = fresh_many(2)
    got = product(vec([1, 2], i), vec([3, 4], j))
    assert_tensors_match(got, [[3, 4], [6, 8]], [i, j])


def test_pagewise_matmul_of_degree_one_matrices():
    k = fresh()
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 4, 5))
    B = rng.standard_normal((4, 2, 5))
    got = product(with_indices(A, [k]), with_indices(B, [k]))
    want = np.stack([A[:, :, p] @ B[:, :, p] for p in range(5)], axis=2)
    assert got.indices == (k,)
    np.testing.assert_allclose(got.entries, want, rtol=1e-13)


def test_mixed_matrix_product():
    # degree-two matrices sharing both page indices: matmul per (i, j) page
    i, j = fresh_many(2)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 4, 2, 2))
    B = rng.standard_normal((4, 5, 2, 2))
    got = product(with_indices(A, [i, ~j]), with_indices(B, [i, ~j]))
    assert got.indices == (i, ~j)
    for vi in range(2):
        for vj in range(2):
            np.testing.assert_allclose(
                got.entries[:, :, vi, vj], A[:, :, vi, vj] @ B[:, :, vi, vj], rtol=1e-13
            )


def test_matrix_conformance_error():
    a = Tensor(np.random.rand(3, 2))
    b = Tensor(np.random.rand(3, 3))
    with pytest.raises(DimMismatchError):
        product(a, b)


def test_scalar_expansion():
    i = fresh()
    s = Tensor(np.array([[2.0]]))
    m = Tensor(np.arange(6.0).reshape(2, 3))
    got = product(s, m)
    np.testing.assert_array_equal(got.entries, 2.0 * np.arange(6.0).reshape(2, 3))
    got2 = product(vec([1, 2], i), m)
    assert got2.entries.shape == (2, 3, 2)


def test_plain_2d_operand_keeps_indices():
    k = fresh()
    A = np.random.rand(3, 3, 4)
    t = with_indices(A, [k])
    M = np.random.rand(3, 2)
    got = product(t, M)
    assert got.indices == (k,)
    np.testing.assert_allclose(got.entries, np.einsum("rqk,qs->rsk", A, M), rtol=1e-13)


def test_euclidean_norm_via_ctranspose():
    k = fresh()
    x = (np.arange(6) + 1j * np.arange(1, 7)).reshape(3, 2)
    t = with_indices(x.reshape(3, 1, 2), [~k])
    got = product(page_ctranspose(t), t)
    assert got.degree == 0
    np.testing.assert_allclose(got.entries.ravel()[0], (np.abs(x) ** 2).sum(), rtol=1e-13)


@pytest.mark.parametrize("case", ["1x1 inf scales zeros", "inf meets zeros in a matrix multiply",
                                  "1x1 scaling sums inf and -inf"])
def test_product_is_silent_on_non_finite_entries(case):
    # inf * 0 and inf - inf give NaN without a RuntimeWarning, as the
    # entrywise operations and the contractions do
    k = fresh()
    a, b, want = {
        "1x1 inf scales zeros": (
            Tensor(np.array([[np.inf]])), Tensor(np.zeros((2, 2))), np.full((2, 2), np.nan)),
        "inf meets zeros in a matrix multiply": (
            Tensor(np.array([[np.inf, 0.0], [0.0, 1.0]])), Tensor(np.zeros((2, 2))),
            np.array([[np.nan, np.nan], [0.0, 0.0]])),
        "1x1 scaling sums inf and -inf": (
            vec([np.inf, -np.inf], k), with_indices(np.ones((2, 2, 2)), [~k]),
            np.full((2, 2), np.nan)),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = product(a, b)
    np.testing.assert_array_equal(got.entries, want)


def test_product_page_size_mismatch():
    k = fresh()
    with pytest.raises(DimMismatchError):
        product(vec([1, 2], k), vec([1, 2, 3], k))


def test_product_inner_size_mismatch():
    k = fresh()
    with pytest.raises(DimMismatchError, match="inner index"):
        product(vec([1, 2], k), vec([1, 2, 3], ~k))


def test_product_broadcasts_singleton_pages():
    # an index addressing a trailing singleton replicates across the pages
    k = fresh()
    a = with_indices(np.full((1, 1, 1), 2.0), [k])
    b = vec([1, 2, 3], k)
    got = product(a, b)
    np.testing.assert_array_equal(got.entries.ravel(), [2.0, 4.0, 6.0])
    assert got.indices == (k,)


def test_product_spreads_a_size_zero_page_against_a_singleton():
    # numpy broadcasts 0 against 1 to 0, so the size-0 side spreads its page
    k = fresh()
    g, e = with_indices(np.zeros((1, 1, 0)), [k]), with_indices(np.ones((1, 1, 1)), [k])
    for a, b in ((g, e), (e, g)):
        assert product(a, b).entries.shape == ewise_binary(".*", a, b).entries.shape == (1, 1, 0)
    got = product(with_indices(np.ones((2, 3, 1)), [k]), with_indices(np.ones((3, 4, 0)), [k]))
    assert got.entries.shape == (2, 4, 0) and got.indices == (k,)


def test_solve_complex_entries():
    rng = np.random.default_rng(21)
    l, lp = fresh_many(2)
    A_data = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
    b_data = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u = solve_left(scal(A_data, [l, lp]), vec_c(b_data, lp))
    want = np.linalg.solve(A_data.T, b_data)
    np.testing.assert_allclose(u.entries.ravel(), want, rtol=1e-12)


def vec_c(values, handle):
    return with_indices(np.asarray(values, dtype=complex).reshape(1, 1, -1), [handle])


# -- exhaustive pattern sweep ------------------------------------------------------


def _sweep_cases():
    rng = np.random.default_rng(12345)
    for da in range(4):
        for db in range(4):
            for k in range(min(da, db) + 1):
                for pattern in itertools.product(("inner", "page"), repeat=k):
                    yield da, db, k, pattern, rng


def test_product_matches_loop_oracle_over_all_patterns():
    rng = np.random.default_rng(999)
    checked = 0
    for da in range(4):
        for db in range(4):
            for k in range(min(da, db) + 1):
                for pattern in itertools.product(("inner", "page"), repeat=k):
                    shared = fresh_many(k)
                    a_only = fresh_many(da - k)
                    b_only = fresh_many(db - k)
                    ai = list(shared) + a_only
                    bi = [
                        ~h if kind == "inner" else h
                        for h, kind in zip(shared, pattern)
                    ] + b_only
                    sizes = {h.id: int(rng.integers(1, 5)) for h in ai + bi}
                    ae = rng.integers(-4, 5, (1, 1) + tuple(sizes[h.id] for h in ai)).astype(float)
                    be = rng.integers(-4, 5, (1, 1) + tuple(sizes[h.id] for h in bi)).astype(float)
                    got = product(with_indices(ae, ai), with_indices(be, bi))
                    want, want_idx = loop_product(ae, ai, be, bi)
                    assert [h.id for h in got.indices] == [h.id for h in want_idx]
                    np.testing.assert_array_equal(
                        got.entries, want.reshape(got.entries.shape)
                    )
                    checked += 1
    assert checked == 58


def _integer_entries(rng, shape, kind):
    if kind == "bool":
        return rng.integers(0, 2, shape).astype(bool)
    real = rng.integers(-3, 4, shape).astype(float)
    return real + 1j * rng.integers(-3, 4, shape) if kind == "complex" else real


# (rows, cols) and index list of each operand: name, size, variant.  Operands
# are tens of kilobytes to megabytes, pages last as stored, so packing them
# takes many slabs; a page of size 1 on one side broadcasts over the other.
_LARGE_PRODUCTS = {
    "equal pages": (((48, 40), [("p", 64, True)]), ((40, 24), [("p", 64, True)])),
    "size-1 page on A": (((48, 40), [("p", 1, True)]), ((40, 24), [("p", 64, True)])),
    "size-1 page on B": (((48, 40), [("p", 64, True)]), ((40, 24), [("p", 1, True)])),
    "broadcast next to kept": (
        ((48, 40), [("p", 8, False), ("q", 1, True)]),
        ((40, 24), [("q", 16, True), ("p", 8, False)]),
    ),
    "broadcast with leftovers and inner": (
        ((48, 10), [("i", 3, True), ("k", 4, False), ("q", 16, True)]),
        ((10, 6), [("k", 4, True), ("q", 1, True), ("j", 5, False)]),
    ),
}


@pytest.mark.parametrize("kind", ("bool", "real", "complex"))
@pytest.mark.parametrize("case", list(_LARGE_PRODUCTS))
def test_large_product_matches_einsum(case, kind):
    (a_mat, a_ix), (b_mat, b_ix) = _LARGE_PRODUCTS[case]
    rng = np.random.default_rng(len(case))
    handles = {n: fresh() for n, _, _ in a_ix + b_ix}
    a = _integer_entries(rng, a_mat + tuple(s for _, s, _ in a_ix), kind)
    b = _integer_entries(rng, b_mat + tuple(s for _, s, _ in b_ix), kind)
    got = product(with_indices(a, [handles[n] if v else ~handles[n] for n, _, v in a_ix]),
                  with_indices(b, [handles[n] if v else ~handles[n] for n, _, v in b_ix]))
    a_names, b_names = [n for n, _, _ in a_ix], [n for n, _, _ in b_ix]
    left = [n for n in a_names if n not in b_names]
    right = [n for n in b_names if n not in a_names]
    pages = [(n, v) for n, _, v in a_ix if (n, v) in {(m, w) for m, _, w in b_ix}]
    spec = (f"xy{''.join(a_names)},yz{''.join(b_names)}"
            f"->xz{''.join(left + right + [n for n, _ in pages])}")
    numeric = [x.astype(float) if x.dtype == bool else x for x in (a, b)]
    want = np.einsum(spec, *numeric)  # integer-valued: exact in any summation order
    variant = {n: v for n, _, v in a_ix + b_ix if n in left + right}
    want_ix = [handles[n] if variant[n] else ~handles[n] for n in left + right]
    want_ix += [handles[n] if v else ~handles[n] for n, v in pages]
    assert got.indices == tuple(want_ix)
    assert got.entries.dtype == want.dtype
    np.testing.assert_array_equal(got.entries, want)


# A 1x1 operand scales the other one's 48x40 pages; k is summed, and the page
# p has size 1 on the 1x1 side.  Names, sizes and variants as above.
_LARGE_SCALINGS = {
    "1x1 on the left": (
        ((1, 1), [("k", 8, True), ("p", 1, True), ("i", 3, False)]),
        ((48, 40), [("p", 16, True), ("k", 8, False)]),
    ),
    "1x1 on the right": (
        ((48, 40), [("p", 16, True), ("k", 8, True)]),
        ((1, 1), [("j", 3, True), ("k", 8, False), ("p", 1, True)]),
    ),
}


@pytest.mark.parametrize("kind", ("bool", "real", "complex"))
@pytest.mark.parametrize("case", list(_LARGE_SCALINGS))
def test_large_scaling_product_matches_einsum(case, kind):
    (a_mat, a_ix), (b_mat, b_ix) = _LARGE_SCALINGS[case]
    rng = np.random.default_rng(len(case))
    handles = {n: fresh() for n, _, _ in a_ix + b_ix}
    a = _integer_entries(rng, a_mat + tuple(s for _, s, _ in a_ix), kind)
    b = _integer_entries(rng, b_mat + tuple(s for _, s, _ in b_ix), kind)
    got = product(with_indices(a, [handles[n] if v else ~handles[n] for n, _, v in a_ix]),
                  with_indices(b, [handles[n] if v else ~handles[n] for n, _, v in b_ix]))
    a_names, b_names = [n for n, _, _ in a_ix], [n for n, _, _ in b_ix]
    left = [n for n in a_names if n not in b_names]
    right = [n for n in b_names if n not in a_names]
    # the 1x1 side's matrix axes are summed away at size 1
    a_mat_spec, b_mat_spec = ("uv", "xz") if a_mat == (1, 1) else ("xz", "uv")
    spec = (f"{a_mat_spec}{''.join(a_names)},{b_mat_spec}{''.join(b_names)}"
            f"->xz{''.join(left + right)}p")
    numeric = [x.astype(float) if x.dtype == bool else x for x in (a, b)]
    want = np.einsum(spec, *numeric)  # integer-valued: exact in any summation order
    variant = {n: v for n, _, v in a_ix + b_ix}
    want_ix = [handles[n] if variant[n] else ~handles[n] for n in left + right + ["p"]]
    assert got.indices == tuple(want_ix)
    assert got.entries.dtype == want.dtype
    np.testing.assert_array_equal(got.entries, want)


def test_broadcast_page_product_allocates_only_its_result():
    # the size-1 page joins the outer groups, so Y (pages last) folds to
    # a view and nothing but the result is allocated
    p = fresh()
    rng = np.random.default_rng(8)
    x = with_indices(rng.standard_normal((64, 64, 1)), [p])
    y = with_indices(rng.standard_normal((64, 64, 32)), [p])
    tracemalloc.start()
    try:
        got = product(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * got.entries.nbytes


# -- division ----------------------------------------------------------------------


def test_solve_left_diag_example():
    l, lp = fresh_many(2)
    A = scal(np.diag([2.0, 4.0]), [l, lp])
    b = vec([6.0, 8.0], lp)
    u = solve_left(A, b)
    assert u.indices == (~l,)
    np.testing.assert_allclose(u.entries.ravel(), [3.0, 2.0], rtol=1e-14)


def test_solve_left_identity():
    l, lp, i = fresh_many(3)
    A = scal(np.eye(3), [l, lp])
    rng = np.random.default_rng(2)
    b = with_indices(rng.standard_normal((1, 1, 4, 3)), [i, lp])
    u = solve_left(A, b)
    assert [h.id for h in u.indices] == [l.id, i.id]
    assert u.indices[0] == ~l
    np.testing.assert_allclose(
        u.entries.reshape(3, 4), b.entries.reshape(4, 3).T, rtol=1e-13
    )


def test_solve_then_product_reconstructs():
    l, lp, i = fresh_many(3)
    rng = np.random.default_rng(3)
    A = scal(rng.standard_normal((4, 4)) + 4 * np.eye(4), [l, lp])
    b = with_indices(rng.standard_normal((1, 1, 3, 4)), [i, lp])
    u = solve_left(A, b)
    recon = product(A, u)
    aligned_got = assign([i, lp], recon)
    np.testing.assert_allclose(
        aligned_got.entries, b.entries, atol=1e-10 * np.abs(b.entries).max()
    )


def test_solve_pagewise_matrices():
    # per-page systems: the denominator carries the complemented page index
    k = fresh()
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 4, 3)) + 4 * np.eye(4)[:, :, None]
    C = rng.standard_normal((4, 2, 3))
    u = solve_left(with_indices(A, [~k]), with_indices(C, [k]))
    assert u.indices == (k,)
    for p in range(3):
        np.testing.assert_allclose(
            u.entries[:, :, p], np.linalg.solve(A[:, :, p], C[:, :, p]), rtol=1e-10
        )
    recon = product(with_indices(A, [k]), u)
    np.testing.assert_allclose(recon.entries, C, rtol=1e-10)


def test_solve_right_matches_transposed_system():
    rng = np.random.default_rng(5)
    l, lp = fresh_many(2)
    A = scal(rng.standard_normal((3, 3)) + 3 * np.eye(3), [l, lp])
    b = vec(rng.standard_normal(3), lp)
    # product(u, A) = b  contracts u's index against A's first index
    u = solve_right(b, A)
    assert u.indices[0] == ~l or u.indices == (~l,)
    recon = product(u, A)
    np.testing.assert_allclose(
        recon.entries.ravel(), b.entries.ravel(), atol=1e-10
    )


def test_singular_page_error_carries_page():
    k = fresh()
    A = np.stack([np.eye(2), np.zeros((2, 2))], axis=2)
    b = np.ones((2, 1, 2))
    with pytest.raises(SingularPageError) as err:
        solve_left(with_indices(A, [~k]), with_indices(b, [k]))
    assert err.value.page == 1


def test_least_squares_tall_pages():
    rng = np.random.default_rng(6)
    l, lp, i = fresh_many(3)
    A = rng.standard_normal((1, 1, 3, 5))  # 5 equations, 3 unknowns
    b = rng.standard_normal((1, 1, 5))
    u = solve_left(with_indices(A, [l, lp]), vec(b.ravel(), lp))
    M = A.reshape(3, 5).T
    want, *_ = np.linalg.lstsq(M, b.ravel(), rcond=None)
    np.testing.assert_allclose(u.entries.ravel(), want, rtol=1e-10)


def test_solve_with_matrix_numerator_blocks():
    # scalar-degree denominator, matrix-valued numerator: each (row, col)
    # entry of the numerator is an independent right-hand-side block
    rng = np.random.default_rng(13)
    l, lp = fresh_many(2)
    A_data = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    b_data = rng.standard_normal((2, 4, 3))
    A = scal(A_data, [l, lp])
    b = with_indices(b_data, [lp])
    u = solve_left(A, b)
    assert u.indices == (~l,)
    assert (u.rows, u.cols) == (2, 4)
    for r in range(2):
        for c in range(4):
            want = np.linalg.solve(A_data.T, b_data[r, c])
            np.testing.assert_allclose(u.entries[r, c], want, rtol=1e-12)
    recon = product(A, u)
    np.testing.assert_allclose(recon.entries, b_data, rtol=1e-10)


def test_solve_right_with_matrix_numerator_blocks():
    rng = np.random.default_rng(14)
    l, lp = fresh_many(2)
    A_data = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    b_data = rng.standard_normal((2, 4, 3))
    u = solve_right(with_indices(b_data, [lp]), scal(A_data, [l, lp]))
    assert u.indices == (~l,)
    recon = product(u, scal(A_data, [l, lp]).reindex([l, lp]))
    np.testing.assert_allclose(recon.entries, b_data, rtol=1e-10)


def _system(rng, shape, kind):
    """Well-conditioned denominator pages: random entries plus a diagonal."""
    a = _integer_entries(rng, shape, kind) + 0.1 * rng.standard_normal(shape)
    rows = np.arange(min(shape[:2]))
    a[rows, rows] += 3 * shape[0]
    return a


# side, denominator pages (equations x unknowns), numerator block width, and
# the page sizes of denominator and numerator.  Pages last as stored, so the
# folds move the pages to the front and take several 64 KiB slabs.
_LARGE_DIVISIONS = {
    "square left": ("left", (24, 24), 16, 128, 128),
    "square right": ("right", (24, 24), 16, 128, 128),
    "tall left": ("left", (40, 24), 8, 64, 64),
    "size-1 page on the denominator": ("left", (24, 24), 16, 1, 128),
    "size-1 page on the numerator": ("right", (24, 24), 16, 128, 1),
}


@pytest.mark.parametrize("kinds", [(d, n) for d in ("real", "complex")
                                   for n in ("real", "complex", "bool")])
@pytest.mark.parametrize("case", list(_LARGE_DIVISIONS))
def test_large_division_matches_per_page_linalg(case, kinds):
    side, (m, k), w, pa, pb = _LARGE_DIVISIONS[case]
    rng = np.random.default_rng(len(case))
    p = fresh()
    den = _system(rng, (m, k, pa), kinds[0])
    num = _integer_entries(rng, (m, w, pb), kinds[1])
    # pages first and numeric, for numpy's batched solvers
    A, B = (np.moveaxis(x, -1, 0) for x in (den, num.astype(np.result_type(num, float))))
    if side == "left":
        got = solve_left(with_indices(den, [~p]), with_indices(num, [p]))
    else:  # u D = N per page, with D = den^T and N = num^T
        got = solve_right(with_indices(np.swapaxes(num, 0, 1), [p]),
                          with_indices(np.swapaxes(den, 0, 1), [~p]))
    pages = max(pa, pb)
    A = np.broadcast_to(A, (pages, m, k))
    B = np.broadcast_to(B, (pages, m, w))
    if m == k:
        X = np.linalg.solve(A, B)
    else:
        X = np.stack([np.linalg.lstsq(A[q], B[q], rcond=None)[0] for q in range(pages)])
    want = np.moveaxis(X, 0, -1)  # (k, w, pages)
    if side == "right":
        want = np.swapaxes(want, 0, 1)
    assert got.indices == (p,)
    assert got.entries.dtype == np.result_type(den, num, np.float64)
    np.testing.assert_allclose(got.entries, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_division_without_unknowns_gives_the_empty_solution():
    got = solve_left(np.zeros((3, 0)), np.zeros((3, 2)))
    assert got.entries.shape == (0, 2) and got.indices == ()
    k = fresh()
    got = solve_right(np.zeros((2, 2)), with_indices(np.zeros((1, 1, 0)), [k]))
    assert got.entries.shape == (2, 2, 0) and got.indices == (~k,)
    got = solve_left(with_indices(np.zeros((3, 0, 2)), [~k]), with_indices(np.ones((3, 1, 2)), [k]))
    assert got.entries.shape == (0, 1, 2) and got.indices == (k,)


def test_underdetermined_rejected():
    l, lp = fresh_many(2)
    A = np.random.rand(1, 1, 5, 3)  # 3 equations, 5 unknowns
    b = np.random.rand(1, 1, 3)
    with pytest.raises(DimMismatchError):
        solve_left(with_indices(A, [l, lp]), vec(b.ravel(), lp))


def test_division_rejects_unequal_equation_counts():
    # the matrix rows (left) or columns (right) are the equations; no index checks them
    with pytest.raises(DimMismatchError, match="equation counts disagree: 3 vs 2"):
        solve_left(np.eye(3), np.ones((2, 1)))
    with pytest.raises(DimMismatchError, match="equation counts disagree: 3 vs 2"):
        solve_right(np.ones((1, 2)), np.eye(3))


# -- CP key step --------------------------------------------------------------------


def _cp_instance(rng, n=4, rank=2):
    u0 = rng.standard_normal((n, rank))
    v0 = rng.standard_normal((n, rank))
    w0 = rng.standard_normal((n, rank))
    a = np.einsum("il,jl,kl->ijk", u0, v0, w0)
    return u0, v0, w0, a


def test_cp_key_step_reduces_fit_residual():
    rng = np.random.default_rng(7)
    u0, v0, w0, a = _cp_instance(rng)
    i, j, k, l, lp = fresh_many(5)
    ta = with_indices(a.reshape((1, 1) + a.shape), [i, j, k])
    tv = scal(v0, [j, l])
    tw = scal(w0, [k, l])
    tv_p = scal(v0, [~j, lp])
    tw_p = scal(w0, [~k, lp])

    gram = product(product(tv, tv_p), product(tw, tw_p))
    numer1 = product(product(ta, tv_p), tw_p)
    numer2 = product(ta, product(tv_p, tw_p))
    n1 = assign([i, lp], numer1).entries
    n2 = assign([i, lp], numer2).entries
    assert np.abs(n1 - n2).max() <= 1e-12 * np.abs(n1).max()

    u_new = solve_left(gram, numer1)          # indices (~l, i)
    u_mat = assign([i, ~l], u_new).entries.reshape(4, 2)

    def fit(u):
        recon = np.einsum("il,jl,kl->ijk", u, v0, w0)
        return np.linalg.norm(recon - a) / np.linalg.norm(a)

    u_init = u0 + 0.3 * rng.standard_normal(u0.shape)
    assert fit(u_mat) < fit(u_init)
    assert fit(u_mat) < 1e-10


def test_cp_key_step_matches_normal_equations():
    rng = np.random.default_rng(8)
    u0, v0, w0, a = _cp_instance(rng)
    i, j, k, l, lp = fresh_many(5)
    ta = with_indices(a.reshape((1, 1) + a.shape), [i, j, k])
    gram = product(
        product(scal(v0, [j, l]), scal(v0, [~j, lp])),
        product(scal(w0, [k, l]), scal(w0, [~k, lp])),
    )
    gram_np = (v0.T @ v0) * (w0.T @ w0)
    np.testing.assert_allclose(
        assign([l, lp], gram).entries.reshape(2, 2), gram_np, rtol=1e-12
    )
    numer = product(product(ta, scal(v0, [~j, lp])), scal(w0, [~k, lp]))
    mttkrp = np.einsum("ijk,jl,kl->il", a, v0, w0)
    np.testing.assert_allclose(
        assign([i, lp], numer).entries.reshape(4, 2), mttkrp, rtol=1e-12
    )
