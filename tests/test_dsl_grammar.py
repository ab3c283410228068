"""A property over the `rt` language.

Statements are drawn from the grammar, printed with ``print_ast``, parsed and
evaluated in order against a fixed environment: one tensor per element kind
(bool, real, complex) and degree 0-3, with sizes 0-3 and both index variants.
Each statement must give a bool or a ``Tensor`` that keeps the layout
invariant of ``test_engine_invariants.py``, or raise ``EngineError``; the
pytest configuration turns a ``RuntimeWarning`` into a failure too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtensor import with_indices
from rtensor.dsl import (
    Assign, Binary, Bracket, Call, ColonSub, Environment, IndexSub, Num, NumSub, Postfix, TensorRef,
    Unary, _FUNCTIONS, _PREC, evaluate, parse, print_ast,
)
from rtensor.errors import EngineError
from test_engine_invariants import _entries, _holds

_INDEX_SIZES = {"i": 2, "j": 3, "k": 0}
_MATRICES = ((1, 1), (2, 2), (3, 1), (0, 2))  # rows and columns by degree
_KINDS = {"b": "bool", "r": "real", "c": "complex"}
_BOUND = [f"{kind}{degree}" for kind in _KINDS for degree in range(4)]


def _environment():
    env = Environment.with_seed(0)
    rng = np.random.default_rng(0)
    for name in _BOUND:
        kind, degree = _KINDS[name[0]], int(name[1])
        names = list(_INDEX_SIZES)[:degree]
        # the variants alternate, starting from a different one per kind
        handles = [~env.index(n) if (p + len(kind)) % 2 else env.index(n) for p, n in enumerate(names)]
        shape = _MATRICES[degree] + tuple(_INDEX_SIZES[n] for n in names)
        env.tensors[name] = with_indices(_entries(rng, shape, kind), handles)
    return env


_INDEX = st.builds(IndexSub, st.sampled_from(["i", "j", "k", "l"]), st.booleans())
_NUMBERS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 1e300])
_SUBS = st.one_of(_INDEX, st.builds(NumSub, _NUMBERS), st.just(ColonSub()))
_REFS = st.builds(TensorRef, st.sampled_from(_BOUND + ["t"]),
                  st.none() | st.lists(_SUBS, min_size=1, max_size=4).map(tuple))


def _calls(inner):
    args = st.one_of(inner, st.builds(Num, _NUMBERS))
    names = st.sampled_from([fn for fn in _FUNCTIONS if fn != "cat"])
    return st.builds(Call, names, st.lists(args, min_size=1, max_size=3).map(tuple))


def _cats(inner):
    where = st.one_of(_INDEX, st.builds(NumSub, st.sampled_from([1.0, 2.0, 3.0, 4.0])))
    return st.builds(lambda w, ops: Call("cat", (w, *ops)), where, st.lists(inner, max_size=2))


def _rows(inner):
    return st.lists(st.lists(inner, min_size=1, max_size=2).map(tuple), min_size=1, max_size=2).map(tuple)


_EXPRS = st.recursive(
    st.builds(Num, _NUMBERS) | _REFS,
    lambda inner: st.one_of(
        st.builds(Binary, st.sampled_from(list(_PREC)), inner, inner),
        st.builds(Unary, st.sampled_from(["neg", "pos", "not"]), inner),
        st.builds(Postfix, st.sampled_from(["'", ".'"]), inner),
        _calls(inner),
        _cats(inner),
        st.builds(Bracket, _rows(inner)),
    ),
    max_leaves=6,
)
_TARGETS = st.builds(TensorRef, st.sampled_from(["t", "u"]),
                     st.none() | st.lists(_INDEX, min_size=1, max_size=3).map(tuple))
_STATEMENTS = st.one_of(_EXPRS, st.builds(Assign, _TARGETS, _EXPRS))
_SCRIPTS = st.builds(
    lambda x, y, rest: [Assign(TensorRef("t"), Call("isequal", (x, y))), *rest],
    _EXPRS, _EXPRS, st.lists(_STATEMENTS, min_size=1, max_size=2),
)


def _run(statements):
    """Run the statements in order in one environment; a statement that
    raises a typed error binds nothing, and the next one still runs."""
    env = _environment()
    for text in statements:
        try:
            value = evaluate(parse(text)[1], env)
        except EngineError:
            continue
        if not isinstance(value, bool):
            _holds(value)


@settings(max_examples=300, deadline=None)
@given(script=_SCRIPTS)
def test_every_statement_evaluates_or_raises_a_typed_error(script):
    _run([print_ast(node) for node in script])


@pytest.mark.parametrize("text", [
    "cat(i)",
    "cat(1)",
])
def test_a_statement_the_grammar_property_found(text):
    _run([text])
