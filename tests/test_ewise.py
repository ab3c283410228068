import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rtensor
from rtensor import (
    Tensor,
    alignn,
    concat,
    equal_all,
    ewise_binary,
    ewise_unary,
    fresh,
    fresh_many,
    horzcat,
    page_ctranspose,
    page_diag,
    page_trace,
    page_transpose,
    product,
    solve_left,
    solve_right,
    vertcat,
    with_indices,
)
from rtensor.errors import (
    BoundsError,
    DimMismatchError,
    ElementKindError,
    EngineError,
    OperandKindError,
)

from oracles import loop_ewise


def vec(values, handle):
    return with_indices(np.asarray(values, dtype=float).reshape(1, 1, -1), [handle])


# -- alignn ---------------------------------------------------------------------


def test_alignn_union_order_and_shapes():
    i, j = fresh_many(2)
    c = vec([1, 2], j)
    x = vec([10, 20, 30], i)
    aligned, plan = alignn([c, x])
    assert [h.id for h in plan.union_indices] == [j.id, i.id]
    assert aligned[0].shape == (1, 1, 2, 1)
    assert aligned[1].shape == (1, 1, 1, 3)
    assert plan.contract_ids == ()


def test_alignn_identity_case():
    i, j = fresh_many(2)
    a = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    b = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    aligned, plan = alignn([a, b])
    np.testing.assert_array_equal(aligned[0], a.entries)
    np.testing.assert_array_equal(aligned[1], b.entries)
    assert plan.contract_ids == ()


def test_alignn_contract_set():
    k = fresh()
    aligned, plan = alignn([vec([1, 2], k), vec([3, 4], ~k)])
    assert [h.id for h in plan.contract_ids] == [k.id]


def test_alignn_size_conflict():
    k = fresh()
    with pytest.raises(DimMismatchError):
        alignn([vec([1, 2], k), vec([1, 2, 3], k)])


def test_alignn_plain_passthrough_requires_2d():
    with pytest.raises(OperandKindError):
        alignn([np.zeros((2, 2, 2))])
    aligned, _ = alignn([np.zeros((2, 3))])
    assert aligned[0].shape == (2, 3)


def _aligned(*operands):
    """:func:`alignn`'s first aligned operand, as a tensor over the union."""
    aligned, plan = alignn(list(operands))
    return Tensor(aligned[0], plan.union_indices)


# every public engine operation that takes operands, with x in one operand
# slot and t in the others; the unary ones ignore t
OPERAND_CALLS = {
    "product": product,
    "solve_left": lambda x, t: solve_left(t, x),
    "solve_right": lambda x, t: solve_right(x, t),
    "alignn": _aligned,
    "ewise_binary": lambda x, t: ewise_binary("+", t, x),
    "ewise_unary": lambda x, t: ewise_unary("conj", x),
    "equal_all": lambda x, t: equal_all([x, x]),
    "concat": lambda x, t: concat("cols", [x, t]),
    "horzcat": horzcat,
    "vertcat": lambda x, t: vertcat(x, x),
    "page_transpose": lambda x, t: page_transpose(x),
    "page_ctranspose": lambda x, t: page_ctranspose(x),
    "page_trace": lambda x, t: page_trace(x),
    "page_diag": lambda x, t: page_diag(x),
}


def _outcome(call, *args):
    """What ``call`` gives: a tensor's dtype, entries and indices, a bool, or
    the type of the engine error it raised."""
    try:
        out = call(*args)
    except EngineError as exc:
        return type(exc)
    if isinstance(out, Tensor):
        return out.entries.dtype, out.entries.tolist(), out.indices
    return out


@pytest.mark.parametrize("plain, kind", [
    ("ab", None),
    (np.array([[1, "x"]], dtype=object), None),
    (np.array([[True, False]]), np.bool_),
    (np.array([[1, 2]]), np.float64),
    ([1, 2], np.float64),  # 1-D reads as one row
    (np.array([[1j, 2]], dtype=np.complex64), np.complex128),
])
def test_plain_operands_take_tensor_element_kinds(plain, kind):
    t = vec([1, 2], fresh())
    if kind is None:
        for call in OPERAND_CALLS.values():
            with pytest.raises(ElementKindError):
                call(plain, t)
        return
    as_tensor = Tensor(np.atleast_2d(plain))
    assert alignn([plain])[0][0].dtype == kind
    for name, call in OPERAND_CALLS.items():
        assert _outcome(call, plain, t) == _outcome(call, as_tensor, t), name
    assert equal_all([plain, as_tensor])


# the names of rtensor.__all__ that take no engine operand
NOT_OPERAND_TAKING = {"IndexHandle", "fresh", "fresh_many", "Tensor", "from_array",
                      "with_indices", "assign", "align2", "errors"}


@pytest.mark.parametrize("name", sorted(OPERAND_CALLS))
@pytest.mark.parametrize("value, error", [
    (None, ElementKindError),
    ("ab", ElementKindError),
    (np.zeros((2, 2, 2)), OperandKindError),
    (np.array([[1, "x"]], dtype=object), ElementKindError),
    ([1, 2], None),
    (2.0, None),
])
def test_every_operand_taking_name_returns_a_value_or_an_engine_error(name, value, error):
    assert set(OPERAND_CALLS) == set(rtensor.__all__) - NOT_OPERAND_TAKING
    call = OPERAND_CALLS[name]
    if error is not None:
        with pytest.raises(error):
            call(value, value)
        return
    try:
        out = call(value, value)
    except EngineError:
        return
    assert isinstance(out, (Tensor, bool))


# -- binary ----------------------------------------------------------------------


def test_outer_addition_table():
    i, j = fresh_many(2)
    c = vec([1, 2], j)
    x = vec([10, 20, 30], i)
    got = ewise_binary("+", c, x)
    assert [h.id for h in got.indices] == [j.id, i.id]
    np.testing.assert_array_equal(
        got.entries.reshape(2, 3), [[11, 21, 31], [12, 22, 32]]
    )


def test_outer_relation_row_broadcast():
    i, j = fresh_many(2)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    ta = with_indices(A.reshape(4, 3), []).reindex([i, ~j])
    # b is a 3x1 column with a formal size-1 index j; transposing yields a row with ~j
    tb = page_transpose(with_indices(b.reshape(3, 1), []).reindex([j]))
    got = ewise_binary(">=", ta, tb)
    assert got.kind == "boolean"
    want = np.zeros((4, 3), dtype=bool)
    for r in range(4):
        for c in range(3):
            want[r, c] = A[r, c] >= b[c]
    np.testing.assert_array_equal(got.entries.reshape(4, 3), want)


def test_mixed_variant_times_contracts_to_dot():
    k = fresh()
    x = vec([1, 2, 3], k)
    y = vec([4, 5, 6], ~k)
    got = ewise_binary(".*", x, y)
    assert got.degree == 0
    assert got.entries.ravel()[0] == 32.0


def test_mixed_variant_addition_contracts_after_add():
    # faithful to the generic binary pipeline: align, add, then sum
    k = fresh()
    x = vec([1, 2], k)
    y = vec([10, 20], ~k)
    got = ewise_binary("+", x, y)
    assert got.degree == 0
    assert got.entries.ravel()[0] == (1 + 10) + (2 + 20)


@pytest.mark.parametrize("op", ["+", "<", "and"])
def test_matrix_axes_that_do_not_broadcast_raise(op):
    with pytest.raises(DimMismatchError, match="2x3 .* 3x2"):
        ewise_binary(op, Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    # a size-1 matrix axis still broadcasts
    got = ewise_binary(op, Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3))))
    assert got.entries.shape == (2, 3)


def test_division_follows_ieee():
    k = fresh()
    got = ewise_binary("./", vec([1.0, -1.0], k), vec([0.0, 0.0], k))
    vals = got.entries.ravel()
    assert np.isposinf(vals[0]) and np.isneginf(vals[1])


def test_ordered_comparison_rejects_complex():
    k = fresh()
    z = with_indices(np.array([1 + 1j, 2j]).reshape(1, 1, 2), [k])
    with pytest.raises(ElementKindError):
        ewise_binary("<", z, z)
    assert ewise_binary("==", z, z).entries.all()


def test_with_unit_outer_product_equivalence():
    # broadcast route versus the explicit ones-expansion route, exactly
    i, j = fresh_many(2)
    rng = np.random.default_rng(1)
    b = rng.integers(-5, 6, 3).astype(float)
    c = rng.integers(-5, 6, 4).astype(float)
    bt = page_transpose(vec(b, j))               # (1, 3) row with ~j
    absc = ewise_unary("abs", with_indices(np.abs(c).reshape(4, 1), []).reindex([i]))
    implicit = ewise_binary("+", bt, absc)
    ones_col = np.ones((4, 1))
    ones_row = np.ones((1, 3))
    explicit = (
        np.ones((4, 1)) @ b.reshape(1, 3) + np.abs(c).reshape(4, 1) @ np.ones((1, 3))
    )
    np.testing.assert_array_equal(implicit.entries.reshape(4, 3), explicit)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_entrywise_product_reorderable_with_integer_entries(seed):
    # all parenthesizations and orders of .* agree for operands of degree <= 3
    rng = np.random.default_rng(seed)
    i, j, k = fresh_many(3)
    mk = lambda dims, idx: with_indices(
        rng.integers(-4, 5, (1, 1) + dims).astype(float), idx
    )
    a = mk((2, 3, 2), [i, j, k])
    b = mk((2,), [i])
    c = mk((3, 2), [j, k])
    orders = [
        ewise_binary(".*", ewise_binary(".*", a, b), c),
        ewise_binary(".*", a, ewise_binary(".*", b, c)),
        ewise_binary(".*", ewise_binary(".*", c, b), a),
        ewise_binary(".*", c, ewise_binary(".*", a, b)),
    ]
    base = orders[0]
    for other in orders[1:]:
        assert equal_all([base, other])


def test_ternary_inner_pairings_agree():
    i = fresh()
    a, b, c = vec([1, 2], i), vec([3, 4], i), vec([5, 6], ~i)
    left = ewise_binary(".*", ewise_binary(".*", a, b), c)
    right = ewise_binary(".*", b, ewise_binary(".*", vec([1, 2], ~i), vec([5, 6], ~i)))
    assert left.entries.ravel()[0] == 63.0
    assert right.entries.ravel()[0] == 63.0


@given(seed=st.integers(0, 2**31 - 1), op=st.sampled_from(["+", "-", ".*", "<=", ">"]))
@settings(max_examples=40, deadline=None)
def test_binary_matches_loop_oracle(seed, op):
    # covers disjoint, shared same-variant, and shared complementary (contracting) ids
    rng = np.random.default_rng(seed)
    i, j, k = fresh_many(3)
    da = int(rng.integers(0, 4))
    db = int(rng.integers(0, 4))
    pool = [i, j, ~k]
    ai = pool[:da]
    bi = [~h if rng.random() < 0.5 else h for h in pool[:db]]
    rng.shuffle(bi)
    ae = rng.integers(-4, 5, (1, 1) + tuple(rng.integers(1, 5, da))).astype(float)
    sizes = {h.id: ae.shape[2 + t] for t, h in enumerate(ai)}
    bdims = tuple(sizes.get(h.id, int(rng.integers(1, 5))) for h in bi)
    be = rng.integers(-4, 5, (1, 1) + bdims).astype(float)
    ta, tb = with_indices(ae, ai), with_indices(be, bi)
    fns = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y,
        ".*": lambda x, y: x * y,
        "<=": lambda x, y: x <= y,
        ">": lambda x, y: x > y,
    }
    want, kept = loop_ewise(fns[op], ae, ai, be, bi)
    got = ewise_binary(op, ta, tb)
    assert [h.id for h in got.indices] == [h.id for h in kept]
    np.testing.assert_array_equal(got.entries, want.reshape(got.entries.shape))


# -- unary ------------------------------------------------------------------------


def test_conj_on_real_is_identity():
    t, _ = from_arr(np.random.rand(2, 3))
    got = ewise_unary("conj", t)
    np.testing.assert_array_equal(got.entries, t.entries)


def from_arr(a):
    from rtensor import from_array

    return from_array(a)


def test_step_is_strictly_positive_test():
    k = fresh()
    x = vec([-2.0, 0.0, 3.0], k)
    got = ewise_unary("step", ewise_unary("neg", x))
    np.testing.assert_array_equal(got.entries.ravel(), [1.0, 0.0, 0.0])


def test_round_precision():
    t = Tensor(np.array([[3.14159]]))
    assert ewise_unary("round", t, 2).entries.ravel()[0] == 3.14


@pytest.mark.parametrize("p", [1e300, np.nan, np.inf, 0.5, 309, np.array([1, 2]), 1j])
def test_round_rejects_a_precision_that_is_not_one_bounded_integer(p):
    with pytest.raises(BoundsError):
        ewise_unary("round", Tensor(np.array([[3.14159]])), p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, p, want", [
    (1e300, 10, 1e300),
    (1.7e308, -308, 1.7e308),
    (1.25e-3, 300, 1.25e-3),
    (1e300 + 0.123456789012j, 10, complex(1e300, np.round(0.123456789012, 10))),
    (0.123456789012 + 1e300j, 10, complex(np.round(0.123456789012, 10), 1e300)),
])
def test_round_keeps_an_entry_whose_scaling_overflows(x, p, want):
    """A finite entry has no digits below ``10**-p`` when ``x * 10**p``
    overflows; real and imaginary parts round apart."""
    got = ewise_unary("round", np.array([[x, -x]]), p).entries
    np.testing.assert_array_equal(got, [[want, -want]])


def test_not_requires_boolean():
    with pytest.raises(ElementKindError):
        ewise_unary("not", Tensor(np.array([[1.0]])))
    got = ewise_unary("not", Tensor(np.array([[True, False]])))
    np.testing.assert_array_equal(got.entries.ravel(), [False, True])


@pytest.mark.parametrize("call", [lambda t: ewise_unary("exp", t), page_transpose,
                                  page_ctranspose, page_trace, page_diag])
def test_unary_operations_simplify_a_tensor_on_entry(call):
    """``exp(x(i,~i))`` in the ``rt`` language is exp of the trace, because
    ``reindex`` simplifies; the API gives the same on ``with_indices``."""
    i = fresh()
    t = with_indices(np.random.default_rng(3).uniform(size=(1, 1, 3, 3)), [i, ~i])
    got = call(t)
    assert got.indices == ()
    assert _outcome(call, t) == _outcome(call, t.simplify())


# -- equal_all ----------------------------------------------------------------------


def test_equal_all_same():
    k = fresh()
    x = vec([1, 2], k)
    assert equal_all([x, x])


def test_equal_all_variant_conflict():
    k = fresh()
    assert not equal_all([vec([1, 2], k), vec([1, 2], ~k)])


def test_equal_all_is_false_over_sizes_that_do_not_align():
    k = fresh()
    assert not equal_all([vec([1, 2], k), vec([1, 2, 3], k)])


def test_equal_all_rejects_a_lone_malformed_operand():
    i = fresh()
    with pytest.raises(OperandKindError):
        equal_all([np.zeros((2, 2, 2))])
    with pytest.raises(DimMismatchError):
        equal_all([with_indices(np.zeros((1, 1, 2, 3)), [i, i])])


def test_equal_all_permute_roundtrip():
    i, j = fresh_many(2)
    a = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    roundtrip = a.permute([j, i]).permute([i, j])
    assert equal_all([a, roundtrip])
    assert equal_all([a, a.permute([j, i])])  # alignment makes order immaterial


def test_equal_all_nan_is_unequal():
    k = fresh()
    x = vec([np.nan], k)
    assert not equal_all([x, x])


@pytest.mark.parametrize("run", [
    lambda i, a, b: concat(i, [a, b]),
    lambda i, a, b: equal_all([a, b]),
    lambda i, a, b: ewise_binary("+", a, b),
], ids=["concat", "equal_all", "ewise_binary"])
def test_each_tensor_operand_is_simplified_once(monkeypatch, run):
    simplify, calls = Tensor.simplify, []

    def counted(self):
        calls.append(self)
        return simplify(self)

    monkeypatch.setattr(Tensor, "simplify", counted)
    i, j = fresh_many(2)
    a = with_indices(np.ones((1, 1, 2, 3)), [i, j])
    b = with_indices(np.ones((1, 1, 2, 2, 3)), [i, i, j])  # attracts to a's shape
    run(i, a, b)
    assert [id(t) for t in calls] == [id(a), id(b)]


def test_relations_treat_nan_ieee():
    k = fresh()
    x = vec([np.nan, 1.0], k)
    got = ewise_binary("==", x, x)
    np.testing.assert_array_equal(got.entries.ravel(), [False, True])
