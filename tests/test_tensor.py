import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtensor import Tensor, assign, fresh, fresh_many, from_array, product, with_indices
from rtensor.dsl import Environment
from rtensor.errors import (
    BoundsError,
    DimMismatchError,
    ElementKindError,
    IndexArityError,
    SubscriptKindError,
    UnknownIndexError,
)

from oracles import loop_simplify


def vec(values, handle):
    arr = np.asarray(values, dtype=float).reshape(1, 1, -1)
    return with_indices(arr, [handle])


def outer3(a, b, c):
    return np.multiply.outer(np.multiply.outer(a, b), c).reshape((1, 1) + (len(a), len(b), len(c)))


# -- construction ------------------------------------------------------------


def test_from_array_pagewise_matrix():
    t, idx = from_array(np.random.rand(100, 100, 10))
    assert t.degree == 1 and len(idx) == 1
    assert idx[0].variant is True
    assert t.tensor_dims == (10,)


def test_from_array_plain_matrix():
    t, idx = from_array(np.random.rand(4, 4))
    assert t.degree == 0 and idx == []


def test_from_array_degree_two():
    t, idx = from_array(np.random.rand(2, 2, 3, 5))
    assert t.degree == 2 and len(idx) == 2


def test_entries_are_read_only():
    arr = np.random.rand(2, 2, 3)
    t, _ = from_array(arr)
    with pytest.raises(ValueError):
        t.entries[0, 0, 0] = 1.0
    derived = assign(list(reversed(t.indices)), t)
    with pytest.raises(ValueError):
        derived.entries[...] = 0.0
    arr[0, 0, 0] = 5.0  # the caller's own array stays writeable
    assert arr.flags.writeable


@pytest.mark.parametrize("dtype, kind", [(bool, np.bool_), (np.int64, np.float64),
                                         (np.complex128, np.complex128)])
@pytest.mark.parametrize("shape", [(), (4,), (2, 3), (2, 3, 4)])
def test_from_array_keeps_the_layout_invariant(shape, dtype, kind):
    arr = np.arange(int(np.prod(shape))).reshape(shape).astype(dtype)
    t, idx = from_array(arr)
    assert t.indices == tuple(idx)
    assert t.entries.ndim == 2 + t.degree
    assert t.entries.dtype == kind
    assert not t.entries.flags.writeable
    np.testing.assert_array_equal(t.entries.ravel(), arr.ravel())
    assert arr.flags.writeable


@pytest.mark.parametrize("value, shape", [
    pytest.param(2.0, (1, 1), id="0-D"),
    pytest.param(1j, (1, 1), id="0-D complex"),
    pytest.param(np.zeros(0), (1, 0), id="1-D size 0"),
    pytest.param([1, 2, 3], (1, 3), id="1-D size 3"),
    pytest.param([[1, 2], [3, 4]], (2, 2), id="2-D"),
])
def test_a_plain_value_gets_one_layout_wherever_it_enters(value, shape):
    constructed = Tensor(value).entries
    assert constructed.shape == shape
    for entries in (from_array(value)[0].entries, product(value, 1.0).entries):
        assert entries.shape == shape
        assert entries.dtype == constructed.dtype
        np.testing.assert_array_equal(entries, constructed)


@pytest.mark.parametrize(
    "dtype, kind",
    [("b1", np.bool_), ("i1", np.float64), ("u8", np.float64), ("f2", np.float64),
     ("f4", np.float64), ("f8", np.float64), ("g", np.float64), ("c8", np.complex128),
     ("c16", np.complex128), ("G", np.complex128)],
)
def test_element_kind_of_each_numeric_dtype(dtype, kind):
    t = Tensor(np.array([[1, 0]], dtype=dtype))
    assert t.entries.dtype == kind
    np.testing.assert_array_equal(t.entries, [[1, 0]])


@pytest.mark.parametrize("dtype", ["m8[s]", "M8[s]", "U1", "S1", "O", "V8"])
def test_non_numeric_dtypes_are_rejected(dtype):
    # timedelta counts as an integer subtype in numpy, but is not a number here
    with pytest.raises(ElementKindError):
        Tensor(np.zeros((1, 2), dtype=dtype))


def test_with_indices_trailing_dims():
    k = fresh()
    t = with_indices(np.random.rand(3, 1, 5), [k])
    assert t.degree == 1 and t.tensor_dims == (5,)


def test_with_indices_grows_virtual_singleton():
    k = fresh()
    t = with_indices(np.random.rand(3, 3), [k])
    assert t.degree == 1 and t.tensor_dims == (1,)


def test_with_indices_too_few():
    with pytest.raises(IndexArityError):
        with_indices(np.random.rand(2, 2, 3), [])


# -- reindex / simplify -------------------------------------------------------


def test_reindex_contraction_worked_example():
    i, j, k = fresh_many(3)
    z = with_indices(outer3([1, 2], [3, 4], [5, 6]), [i, j, k])
    got = z.reindex([i, i, ~i])
    assert got.degree == 0
    assert got.entries.ravel()[0] == 63


def test_reindex_attraction_worked_example():
    i, j, k = fresh_many(3)
    z = with_indices(outer3([1, 2], [3, 4], [5, 6]), [i, j, k])
    got = z.reindex([i, i, i])
    assert got.degree == 1
    np.testing.assert_array_equal(got.entries.ravel(), [15.0, 48.0])
    assert got.indices[0].variant is True


def test_reindex_relabel():
    i, j = fresh_many(2)
    t, _ = from_array(np.random.rand(1, 1, 2, 3))
    got = t.reindex([i, j])
    np.testing.assert_array_equal(got.entries, t.entries)
    assert got.indices == (i, j)


def test_reindex_mixed_subscripts_rejected():
    i = fresh()
    t, _ = from_array(np.random.rand(1, 1, 4))
    with pytest.raises(SubscriptKindError):
        t.reindex([i, 1])


def test_simplify_unique_ids_noop():
    t, _ = from_array(np.random.rand(2, 2, 3))
    assert t.simplify() is t


def test_simplify_size_mismatch():
    i = fresh()
    t = with_indices(np.random.rand(1, 1, 2, 3), [i, i])
    with pytest.raises(DimMismatchError):
        t.simplify()


@given(
    degree=st.integers(2, 4),
    dim=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_all_same_id_reindex_matches_loop_diagonal(degree, dim, seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(-4, 5, (1, 1) + (dim,) * degree).astype(float)
    t, idx = from_array(arr)
    i = fresh()
    got = t.reindex([i] * degree)
    want = np.array([arr[(0, 0) + (v,) * degree] for v in range(dim)])
    np.testing.assert_array_equal(got.entries.ravel(), want)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sum_after_attraction_equals_simplify(seed):
    # exhaustive variant patterns of a degree-3 repeat of one identity
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((1, 1, 3, 3, 3))
    i = fresh()
    for pattern in itertools.product([True, False], repeat=3):
        subs = [i if v else ~i for v in pattern]
        simplified = with_indices(arr, subs).simplify()
        attracted = np.array([arr[0, 0, v, v, v] for v in range(3)])
        if len(set(pattern)) > 1:
            assert simplified.degree == 0
            np.testing.assert_allclose(simplified.entries.ravel()[0], attracted.sum())
        else:
            assert simplified.degree == 1
            np.testing.assert_allclose(simplified.entries.ravel(), attracted)
            assert simplified.indices[0].variant is pattern[0]


KINDS = ("bool", "real", "complex")


def _entries(rng, shape, kind):
    if kind == "bool":
        return rng.integers(0, 2, shape).astype(bool)
    real = rng.integers(-3, 4, shape).astype(float)
    return real + 1j * rng.integers(-3, 4, shape) if kind == "complex" else real


def _check_simplify(arr, subs):
    got = with_indices(arr, subs).simplify()
    want, kept = loop_simplify(arr, subs)
    assert got.indices == tuple(kept)  # identities and variants
    assert got.entries.dtype == want.dtype
    assert not got.entries.flags.writeable
    assert got.entries.ndim == 2 + got.degree
    np.testing.assert_array_equal(got.entries, want)


@st.composite
def repeat_cases(draw):
    repeated = fresh_many(draw(st.integers(1, 3)))
    single = fresh_many(draw(st.integers(0, 2)))
    size = {h.id: draw(st.integers(0, 3)) for h in repeated + single}
    slots = single + [h for h in repeated for _ in range(draw(st.integers(1, 3)))]
    subs = [h if draw(st.booleans()) else ~h for h in draw(st.permutations(slots))]
    mat = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = _entries(rng, mat + tuple(size[h.id] for h in subs), draw(st.sampled_from(KINDS)))
    return arr, subs


@given(repeat_cases())
@settings(max_examples=200, deadline=None)
def test_simplify_matches_loop_oracle(case):
    _check_simplify(*case)


@pytest.mark.parametrize("kind", KINDS)
def test_simplify_contracts_a_pair_at_degree_54(kind):
    # 52 unrepeated identities and one contracted pair: more axes than einsum has labels
    k = fresh()
    subs = fresh_many(52)
    subs[3:3] = [k]
    subs[40:40] = [~k]
    sizes = [2 if h.id == k.id or t % 17 == 0 else 1 for t, h in enumerate(subs)]
    arr = _entries(np.random.default_rng(7), (2, 1) + tuple(sizes), kind)
    _check_simplify(arr, subs)


# -- slice ---------------------------------------------------------------------


def test_slice_first_page_value():
    t, _ = from_array(np.arange(5.0).reshape(1, 1, 5))
    assert t.slice([1, 1, 1]) == 0.0


def test_slice_whole_page():
    arr = np.arange(24.0).reshape(2, 3, 4)
    t, _ = from_array(arr)
    np.testing.assert_array_equal(t.slice([":", ":", 2]), arr[:, :, 1])


def test_slice_zero_is_out_of_bounds():
    t, _ = from_array(np.arange(4.0).reshape(2, 2))
    with pytest.raises(BoundsError):
        t.slice([0])


def test_slice_rejects_handles():
    i = fresh()
    t, _ = from_array(np.arange(4.0).reshape(2, 2))
    with pytest.raises(SubscriptKindError):
        t.slice([i, 1])


# -- assign -----------------------------------------------------------------


def test_assign_permutes_and_adopts_variants():
    i, j = fresh_many(2)
    arr = np.arange(6.0).reshape(1, 1, 2, 3)
    y = with_indices(arr, [~j, i])  # j-dim size 2, i-dim size 3
    z = assign([i, ~j], y)
    assert z.indices == (i, ~j)
    want = np.transpose(arr, (0, 1, 3, 2))
    np.testing.assert_array_equal(z.entries, want)


def test_assign_identity_permutation():
    y, idx = from_array(np.random.rand(1, 1, 2, 3))
    z = assign(y.indices, y)
    np.testing.assert_array_equal(z.entries, y.entries)
    assert z.indices == y.indices


def test_assign_missing_id():
    i, j = fresh_many(2)
    y = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    with pytest.raises(UnknownIndexError):
        assign([i], y)


def test_assign_non_tensor_source():
    from rtensor.errors import AssignKindError

    i = fresh()
    with pytest.raises(AssignKindError):
        assign([i], np.zeros((1, 1, 2)))


def test_assign_swap():
    i, j = fresh_many(2)
    arr = np.arange(6.0).reshape(1, 1, 2, 3)
    t = with_indices(arr, [i, j])
    got = assign([j, i], t)
    np.testing.assert_array_equal(got.entries, np.transpose(arr, (0, 1, 3, 2)))
    assert got.indices == (j, i)


def test_assign_grows_degree():
    i, k = fresh_many(2)
    t = with_indices(np.random.rand(1, 1, 4), [i])
    got = assign([i, ~k], t)
    assert got.degree == 2
    assert got.tensor_dims == (4, 1)
    assert got.indices[1] == ~k


def test_assign_takes_any_iterable_of_subscripts():
    i, j = fresh_many(2)
    t = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    got = assign(iter([j, ~i]), t)
    assert got.indices == (j, ~i)
    assert got.tensor_dims == (3, 2)


def test_assign_cannot_drop():
    i, j = fresh_many(2)
    t = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    with pytest.raises(UnknownIndexError):
        assign([i], t)


def test_assign_rejects_a_repeated_identity():
    i, j = fresh_many(2)
    t = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    for subs in ([i, j, i], [i, j, ~j]):
        with pytest.raises(SubscriptKindError, match="lists an identity twice"):
            assign(subs, t)


def test_assign_rejects_a_degree_no_array_holds():
    ks = fresh_many(63)
    with pytest.raises(IndexArityError, match="degree 63 exceeds"):
        assign(ks, with_indices(np.ones((1, 1)), []))


def test_assign_folds_once_and_builds_one_tensor(monkeypatch):
    import rtensor.tensor as tensor_module

    i, j = fresh_many(2)
    t = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    calls = []
    fold, seal = Tensor.fold, tensor_module._seal
    monkeypatch.setattr(Tensor, "fold", lambda self, groups: calls.append("fold") or fold(self, groups))
    monkeypatch.setattr(tensor_module, "_seal", lambda *a: calls.append("seal") or seal(*a))
    got = assign([~j, i], t)
    assert calls == ["fold", "seal"]
    assert got.indices == (~j, i)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_assign_inverse_is_identity(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(1, 5, size=3))
    t, idx = from_array(rng.standard_normal((2, 2) + dims))
    order = list(idx)
    rng.shuffle(order)
    back = assign(idx, assign(order, t))
    np.testing.assert_array_equal(back.entries, t.entries)
    assert back.indices == t.indices


# -- sum -------------------------------------------------------------------------


def test_sum_matched():
    i = fresh()
    y = vec([15.0, 48.0], i)
    got = y.sum([i])
    assert got.degree == 0
    assert got.entries.ravel()[0] == 63.0


def test_sum_empty_is_noop():
    t, _ = from_array(np.random.rand(1, 1, 3))
    assert t.sum([]) is t


def test_sum_unknown_id_is_noop():
    i = fresh()
    t, _ = from_array(np.random.rand(1, 1, 3))
    assert t.sum([i]) is t


def test_sum_ignores_variants():
    i = fresh()
    y = vec([1.0, 2.0, 3.0], i)
    assert y.sum([~i]).entries.ravel()[0] == 6.0


# -- trace identity across modules ------------------------------------------------


def test_reindex_contraction_matches_pagewise_trace():
    from rtensor import page_trace

    i = fresh()
    m = np.arange(9.0).reshape(3, 3)
    as_matrix = Tensor(m)
    as_scalar = with_indices(m.reshape(1, 1, 3, 3), [i, ~i]).simplify()
    assert as_scalar.degree == 0
    assert as_scalar.entries.ravel()[0] == page_trace(as_matrix).entries.ravel()[0]


def test_trace_of_product_matches_reindex_contraction():
    from rtensor import page_trace

    rng = np.random.default_rng(3)
    i = fresh()
    a = rng.standard_normal((1, 1, 4, 4))
    b = rng.standard_normal((1, 1, 4, 4))
    ta = with_indices(a, [i, i]).simplify()      # diagonal attraction
    tb = with_indices(b, [~i, ~i]).simplify()
    prod = product(ta, tb)                        # contraction over i
    direct = sum(a[0, 0, v, v] * b[0, 0, v, v] for v in range(4))
    np.testing.assert_allclose(prod.entries.ravel()[0], direct, rtol=1e-13)
    assert page_trace(prod).entries.ravel()[0] == prod.entries.ravel()[0]


def test_a_tensor_keeps_its_attributes_and_is_its_own_copy():
    t = with_indices(np.arange(2.0).reshape(1, 1, 2), [fresh()])
    for name in ("entries", "indices"):
        with pytest.raises(AttributeError, match="Tensor is immutable"):
            delattr(t, name)
    np.testing.assert_array_equal(t.entries, [[[0.0, 1.0]]])
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    env = Environment()
    env.tensors["a"] = t
    assert copy.deepcopy(env).tensors["a"] is t
