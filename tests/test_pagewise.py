import numpy as np
import pytest

from rtensor import (
    Tensor,
    concat,
    equal_all,
    fresh,
    fresh_many,
    horzcat,
    page_ctranspose,
    page_diag,
    page_trace,
    page_transpose,
    vertcat,
    with_indices,
)
from rtensor.errors import DimMismatchError, IndexArityError, UnknownIndexError
from rtensor.pagewise import page_cat

from oracles import selector_concat


def vec(values, handle):
    return with_indices(np.asarray(values, dtype=float).reshape(1, 1, -1), [handle])


# -- transpose ---------------------------------------------------------------


def test_transpose_involution():
    i = fresh()
    t = with_indices(np.random.rand(2, 3, 4), [i])
    back = page_transpose(page_transpose(t))
    np.testing.assert_array_equal(back.entries, t.entries)
    assert back.indices == t.indices


def test_transpose_complements_variants():
    i = fresh()
    t = with_indices(np.random.rand(2, 3, 4), [i])
    assert page_transpose(t).indices == (~i,)
    assert page_ctranspose(t).indices == (~i,)


def test_ctranspose_of_real_equals_transpose():
    t = Tensor(np.random.rand(3, 2))
    np.testing.assert_array_equal(
        page_ctranspose(t).entries, page_transpose(t).entries
    )


def test_ctranspose_conjugates():
    t = Tensor(np.array([[1 + 2j]]))
    assert page_ctranspose(t).entries[0, 0] == 1 - 2j


# -- trace / diag -----------------------------------------------------------------


def test_trace_of_identity_pages():
    k = fresh()
    pages = np.stack([np.eye(4)] * 3, axis=2)
    t = with_indices(pages, [k])
    got = page_trace(t)
    assert got.indices == (k,)
    np.testing.assert_array_equal(got.entries.ravel(), [4.0, 4.0, 4.0])


def test_trace_rejects_nonsquare():
    with pytest.raises(DimMismatchError):
        page_trace(Tensor(np.random.rand(2, 3)))


def test_diag_recovers_generators():
    k = fresh()
    vs = np.random.rand(4, 3)
    pages = np.stack([np.diag(vs[:, p]) for p in range(3)], axis=2)
    got = page_diag(with_indices(pages, [k]))
    assert got.entries.shape == (4, 1, 3)
    np.testing.assert_array_equal(got.entries[:, 0, :], vs)


def test_diag_rectangular_pages():
    t = Tensor(np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(page_diag(t).entries.ravel(), [0.0, 4.0])


# -- page_cat -----------------------------------------------------------------------


def test_page_cat_cols_with_ones():
    c = np.random.rand(4, 1)
    got = page_cat("cols", [np.ones((4, 1)), np.abs(c)])
    assert got.shape == (4, 2)
    np.testing.assert_array_equal(got[:, 0], np.ones(4))
    np.testing.assert_array_equal(got[:, 1], np.abs(c).ravel())


def test_page_cat_rows():
    b = np.random.rand(1, 5)
    got = page_cat("rows", [b, np.ones((1, 5))])
    assert got.shape == (2, 5)
    np.testing.assert_array_equal(got[0], b.ravel())


def test_page_cat_page_axis_with_singleton():
    a = np.random.rand(2, 2, 1)
    b = np.random.rand(2, 2, 3)
    got = page_cat(2, [a, b])
    assert got.shape == (2, 2, 4)
    np.testing.assert_array_equal(got[:, :, :1], a)


def test_page_cat_expands_higher_singletons():
    a = np.random.rand(2, 2, 1, 2)
    b = np.random.rand(2, 2, 3, 1)
    got = page_cat(3, [a, b])  # cat along last dim, expand dim 2
    assert got.shape == (2, 2, 3, 3)
    np.testing.assert_array_equal(got[:, :, 1, :2], a[:, :, 0, :])


def test_page_cat_incompatible():
    with pytest.raises(DimMismatchError):
        page_cat(3, [np.random.rand(2, 2, 2, 2), np.random.rand(2, 2, 3, 2)])
    with pytest.raises(DimMismatchError):
        page_cat("cols", [np.random.rand(2, 2), np.random.rand(3, 2)])


# -- index concat ----------------------------------------------------------------------


def test_concat_along_index_worked_example():
    i, j, k = fresh_many(3)
    A = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    B = with_indices(np.random.rand(1, 1, 3, 2), [j, k])
    got = concat(j, [A, B])
    assert [h.id for h in got.indices] == [i.id, j.id, k.id]
    assert got.entries.shape == (1, 1, 2, 6, 2)
    # first span replicates A over k, second replicates B over i
    for vk in range(2):
        np.testing.assert_array_equal(got.entries[0, 0, :, :3, vk], A.entries[0, 0])
    for vi in range(2):
        np.testing.assert_array_equal(got.entries[0, 0, vi, 3:, :], B.entries[0, 0])


def test_concat_matches_selector_construction():
    rng = np.random.default_rng(0)
    for trial in range(12):
        i, j, k = fresh_many(3)
        size_of = {i.id: int(rng.integers(2, 5)), k.id: int(rng.integers(2, 5))}
        nops = int(rng.integers(2, 4))
        ops = []
        for _ in range(nops):
            extra = [i, k][: int(rng.integers(0, 3))]
            idx = [j] + extra
            rng.shuffle(idx)
            dims = tuple(
                int(rng.integers(1, 5)) if h.id == j.id else size_of[h.id]
                for h in idx
            )
            ops.append((rng.standard_normal((1, 1) + dims), idx))
        got = concat(j, [with_indices(e, x) for e, x in ops])
        want, union = selector_concat(ops, j.id)
        assert [h.id for h in got.indices] == [h.id for h in union]
        np.testing.assert_array_equal(got.entries, want.reshape(got.entries.shape))


def test_concat_single_operand():
    i = fresh()
    A = vec([1, 2, 3], i)
    got = concat(i, [A])
    np.testing.assert_array_equal(got.entries, A.entries)


def test_concat_missing_index():
    i, j = fresh_many(2)
    A = vec([1, 2], i)
    B = vec([3, 4], j)
    with pytest.raises(UnknownIndexError):
        concat(i, [A, B])


def test_concat_sums_sizes():
    j = fresh()
    got = concat(j, [vec([1, 2], j), vec([3, 4, 5], j)])
    np.testing.assert_array_equal(got.entries.ravel(), [1, 2, 3, 4, 5])


def test_concat_equals_selector_via_equal_all():
    i, j, k = fresh_many(3)
    A = with_indices(np.arange(6.0).reshape(1, 1, 2, 3), [i, j])
    B = with_indices(np.arange(6.0, 12.0).reshape(1, 1, 3, 2), [j, k])
    got = concat(j, [A, B])
    want, union = selector_concat(
        [(A.entries, A.indices), (B.entries, B.indices)], j.id
    )
    assert equal_all([got, with_indices(want, union)])


# -- bracket forms -----------------------------------------------------------------------


def test_horzcat_tensor_and_plain():
    i = fresh()
    c = with_indices(np.random.rand(4, 1), []).reindex([i])
    got = horzcat(np.ones((4, 1)), c)
    assert got.entries.shape[:2] == (4, 2)
    assert [h.id for h in got.indices] == [i.id]


def test_vertcat_row_and_ones():
    j = fresh()
    b = page_transpose(with_indices(np.random.rand(5, 1), []).reindex([j]))
    got = vertcat(b, np.ones((1, 5)))
    assert got.entries.shape[:2] == (2, 5)
    assert got.indices == (~j,)


def test_concat_beyond_the_operand_dimensions():
    i = fresh()
    with pytest.raises(IndexArityError):
        concat(3, [vec([1, 2], i), vec([3, 4], i)])
    # one operand is returned as it is, whatever the axis
    assert concat(3, [vec([1, 2], i)]).indices == (i,)


def test_concat_before_the_first_dimension():
    i = fresh()
    for operands in ([vec([1, 2], i), vec([3, 4], i)], [vec([1, 2], i)]):
        with pytest.raises(IndexArityError, match="axis 0 lies before"):
            concat(-1, operands)


def test_array_helpers_stay_out_of_the_package_namespace():
    import rtensor

    for name in ("page_cat", "AlignmentPlan2", "AlignmentPlanN"):
        assert name not in rtensor.__all__
        assert not hasattr(rtensor, name)
