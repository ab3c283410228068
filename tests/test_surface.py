"""Package-wide guards: what the public surface holds, what it leaves out,
and which of its names and settings have a caller outside the tests."""

from pathlib import Path

import numpy as np
import pytest

from rtensor import Tensor, assign, fresh_many, from_array, with_indices
from rtensor.errors import SubscriptKindError, UnknownIndexError


def test_array_helpers_stay_out_of_the_package_namespace():
    import inspect

    import rtensor

    for name in ("page_cat", "AlignmentPlan2", "AlignmentPlanN",
                 "complement", "same_id", "variant", "as_true", "as_false"):
        assert name not in rtensor.__all__
        assert not hasattr(rtensor, name) and not hasattr(rtensor.indices, name)
    assert not hasattr(rtensor.Tensor, "dim_of")
    assert list(inspect.signature(rtensor.alignn).parameters) == ["operands"]
    # one public entry per operation: assign reorders, concat concatenates
    assert not hasattr(rtensor.Tensor, "permute")
    for name in ("horzcat", "vertcat"):
        assert name not in rtensor.__all__ and name not in rtensor.pagewise.__all__
        assert not hasattr(rtensor, name) and not hasattr(rtensor.pagewise, name)
    for where in ("rows", "cols"):
        with pytest.raises(SubscriptKindError, match="invalid concatenation axis"):
            rtensor.concat(where, [np.ones((2, 2)), np.ones((2, 2))])


def test_every_public_name_is_used_outside_the_tests():
    """Each name in ``rtensor.__all__`` and ``rtensor.corona.__all__`` is
    referenced under src/, scripts/ or perfbench/, outside its own definition
    and outside any test."""
    import ast

    import rtensor
    import rtensor.corona

    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:  # `from .errors import`
            used.update(node.module.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    root = Path(__file__).resolve().parents[1]
    for top in ("src", "scripts", "perfbench"):
        for path in (root / top).rglob("*.py"):
            if "tests" not in path.relative_to(root).parts:
                visit(ast.parse(path.read_text()), frozenset())
    public = [*rtensor.__all__, *rtensor.corona.__all__]
    assert [name for name in public if name not in used] == []


def test_every_report_field_is_read_outside_the_tests():
    """Each field of ``OptReport`` is read as an attribute under src/, scripts/
    or perfbench/, outside any test; a field nothing reads is work the solver
    does for no caller."""
    import ast
    import dataclasses

    from rtensor.corona import OptReport

    read = set()
    root = Path(__file__).resolve().parents[1]
    for top in ("src", "scripts", "perfbench"):
        for path in (root / top).rglob("*.py"):
            if "tests" not in path.relative_to(root).parts:
                read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert [f.name for f in dataclasses.fields(OptReport) if f.name not in read] == []


def test_every_config_field_is_set_by_a_caller_outside_the_tests():
    """Each field of the demo's option classes is passed by keyword, in a call
    to its class, under src/, scripts/ or perfbench/, outside any test; a
    field no caller sets belongs in a module constant."""
    import ast
    import dataclasses

    from rtensor.corona import SceneConfig, TrustRegionOptions

    classes = {cls.__name__: cls for cls in (SceneConfig, TrustRegionOptions)}
    passed = {name: set() for name in classes}
    root = Path(__file__).resolve().parents[1]
    for top in ("src", "scripts", "perfbench"):
        for path in (root / top).rglob("*.py"):
            if "tests" in path.relative_to(root).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in passed:
                    passed[name].update(kw.arg for kw in node.keywords if kw.arg)
    unset = [f"{name}.{f.name}" for name, cls in classes.items()
             for f in dataclasses.fields(cls) if f.name not in passed[name]]
    assert unset == []


def test_tensor_has_no_python_arithmetic_operators():
    """Tensors combine through the engine functions or the rt language, which
    map each operator to its engine function in one table."""
    import rtensor.tensor

    t = Tensor(1.0)  # an instance: ``type`` itself defines ``__or__``
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__", "__neg__", "__invert__", "__and__", "__or__"):
        assert not hasattr(t, name)
    assert not hasattr(rtensor.tensor, "_ewise") and not hasattr(rtensor.tensor, "_lattice")


@pytest.mark.parametrize("sub", [slice(1, 2), Ellipsis], ids=["slice", "ellipsis"])
def test_slice_takes_only_integers_and_colons(sub):
    t, _ = from_array(np.arange(4.0).reshape(2, 2))
    with pytest.raises(SubscriptKindError):
        t.slice([sub, 1])


def test_an_assignment_that_misses_an_index_names_it():
    i, j = fresh_many(2)
    y = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    with pytest.raises(UnknownIndexError, match=f"^subscripts do not cover index {j!r}$"):
        assign([i], y)
