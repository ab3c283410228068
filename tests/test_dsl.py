import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtensor import fresh, with_indices
from rtensor.cli import main as rt_main
from rtensor.dsl import (
    Assign,
    Binary,
    Bracket,
    Call,
    ColonSub,
    Environment,
    IndexSub,
    Num,
    NumSub,
    Postfix,
    TensorRef,
    Unary,
    evaluate,
    parse,
    print_ast,
    run_script,
    to_json_record,
)
from rtensor.errors import BoundsError, ExprSyntaxError, SubscriptKindError, UnknownNameError

ROOT = Path(__file__).resolve().parents[1]

def env_with_vectors():
    env = Environment.with_seed(1)
    i = env.index("i")
    for name, vals in (("a", [1.0, 2.0]), ("b", [3.0, 4.0]), ("c", [5.0, 6.0])):
        env.tensors[name] = with_indices(np.array(vals).reshape(1, 1, 2), [i])
    return env


# -- parsing ------------------------------------------------------------------


def test_parse_ternary_left_assoc():
    kind, node = parse("a(i)*b(i)*c(~i)")
    assert kind == "expr"
    assert node == Binary(
        "*",
        Binary("*", TensorRef("a", (IndexSub("i"),)), TensorRef("b", (IndexSub("i"),))),
        TensorRef("c", (IndexSub("i", True),)),
    )


def test_parse_assign():
    kind, node = parse("z(i,~j) = y(~j,i)")
    assert kind == "assign"
    assert node.target == TensorRef("z", (IndexSub("i"), IndexSub("j", True)))
    assert node.value == TensorRef("y", (IndexSub("j", True), IndexSub("i")))


def test_parse_division():
    kind, node = parse("A(l,lp)\\b(i,lp)")
    assert isinstance(node, Binary) and node.op == "\\"


def test_parse_precedence_levels():
    _, node = parse("a(i)+b(i)*c(i)")
    assert node.op == "+" and node.rhs.op == "*"
    _, node = parse("a(i)*b(i)==c(i)+a(i)")
    assert node.op == "==" and node.lhs.op == "*" and node.rhs.op == "+"
    _, node = parse("a(i)==b(i) & c(i)>a(i)")
    assert node.op == "&"


def test_parse_postfix_quotes():
    _, node = parse("x(~k)'*x(~k)")
    assert node.op == "*" and isinstance(node.lhs, Postfix) and node.lhs.op == "'"
    _, node = parse("b(j).'")
    assert isinstance(node, Postfix) and node.op == ".'"


def test_parse_brackets():
    _, node = parse("[ones(4,1) abs(c(i))]")
    assert isinstance(node, Bracket)
    assert len(node.rows) == 1 and len(node.rows[0]) == 2
    _, node = parse("[b(j).'; ones(1,5)]")
    assert len(node.rows) == 2


def test_parse_bracket_operator_continues_item():
    _, node = parse("[a(i) - b(i)]")
    assert isinstance(node, Bracket)
    assert len(node.rows[0]) == 1 and node.rows[0][0].op == "-"


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("a(i) +* b(i)")
    assert err.value.line == 1 and err.value.col > 1


def test_parse_unterminated_bracket():
    with pytest.raises(ExprSyntaxError):
        parse("[a(i) b(i)")


def test_parse_malformed_number():
    with pytest.raises(ExprSyntaxError):
        parse("a(i) + 1.2.3")


def _statements(path):
    lines = (line.split("#", 1)[0].strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [s for s in lines if s]


def test_parse_results_pinned():
    """``data/parse_pinned.json`` pairs statements with the ``repr`` of their
    parse: every statement of scripts/golden.rts, then the 201 statements the
    engine-small benchmark workload generates for seed 1."""
    pinned = json.loads((ROOT / "tests" / "data" / "parse_pinned.json").read_text(encoding="utf-8"))
    assert set(_statements(ROOT / "scripts" / "golden.rts")) <= {text for text, _ in pinned}
    for text, expected in pinned:
        assert repr(parse(text)) == expected, text


@pytest.mark.parametrize("text, message, line, col", [
    ("a +", "unexpected token ''", 1, 4),
    ("a(i", "expected ')', found ''", 1, 4),
    ("[a b", "unterminated bracket", 1, 1),
    ("[a;", "unterminated bracket", 1, 1),
    ("[]", "empty brackets", 1, 1),
    ("1.2.3", "malformed number '1.2.3'", 1, 1),
    ("1e", "malformed number '1e'", 1, 1),
    ("a(~1)", "expected an index name after '~'", 1, 4),
    ("cat(~, a)", "expected an index name after '~'", 1, 6),
    ("3 = a", "assignment target must be a tensor reference", 1, 3),
    ("a $ b", "unexpected character '$'", 1, 3),
    ("\t@", "unexpected character '@'", 1, 2),
    (".", "unexpected character '.'", 1, 1),
    ("a..b", "unexpected character '.'", 1, 2),
    ("a;;", "unexpected trailing token ';'", 1, 3),
    ("x = y = z", "unexpected trailing token '='", 1, 7),
    ("a(i)'(j)", "unexpected trailing token '('", 1, 6),
    ("(a", "expected ')', found ''", 1, 3),
    ("a(1 2)", "expected ')', found '2'", 1, 5),
    ("", "unexpected token ''", 1, 1),
    ("a * * b", "unexpected token '*'", 1, 5),
    ("assert", "unexpected token ''", 1, 7),
    ("a(i,)", "subscripts must be index names, numbers, or ':'", 1, 5),
    ("cat()", "subscripts must be index names, numbers, or ':'", 1, 5),
    ("a\n+", "unexpected token ''", 2, 2),
    ("a(i)\n  $", "unexpected character '$'", 2, 3),
    ("1 +\r\n2 +", "unexpected token ''", 2, 4),
    # the parent lexer left the column where a comment began (1:5 here)
    ("a + # note", "unexpected token ''", 1, 11),
    ("1e999", "number '1e999' is too large", 1, 1),
    ("a(1, 2e400)", "number '2e400' is too large", 1, 6),
])
def test_parse_errors_pinned(text, message, line, col):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (f"{message} (at {line}:{col})", line, col)


def test_parse_print_roundtrip():
    texts = [
        "a(i)*b(i)*c(~i)",
        "a(i)*(b(i)*c(~i))",
        "A(l,lp)\\b(i,lp)",
        "log(c(j)+x(i))",
        "y(i,~j) ~= y(~j,i)",
        "trace(C(i,~i))",
        "cat(j,A(i,j),B(j,k))",
        "[ones(4,1) abs(c(i))]",
        "[b(j).'; ones(1,5)]",
        "A(i,~j) >= b(j).'",
        "x(~k)'*x(~k)",
        "-a(i)+~m(i)&b(i)|c(i)",
        "a(1,2)",
        "isequal(a(i),b(~i))",
        "z(i,~j) = y(~j,i)",
        "u(i,~l) = A(l,lp)\\b(i,lp)",
        "(-a)'",
        "(~m(i)).'",
        "1 .*b",
        "0.5 .'",
        "2 ./x(i)+3 .^2",
        "[(a) (-b)]",
        "[(a) (b+c)*d; (-e) (+f)]",
    ]
    for text in texts:
        kind1, node1 = parse(text)
        kind2, node2 = parse(print_ast(node1))
        assert kind1 == kind2 and node1 == node2, text


@pytest.mark.parametrize("text, printed", [
    ("1e300", "1e+300"), ("1e16", "1e+16"), ("2", "2"), ("2.50", "2.5"), ("0.5", "0.5"),
    ("a(3)", "a(3)"),
])
def test_print_ast_writes_a_number_as_its_shortest_text(text, printed):
    assert print_ast(parse(text)[1]) == printed


_NAMES = st.sampled_from(["a", "b2", "x_y", "Q"])
_NUMBERS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_SUBS = st.one_of(
    st.builds(IndexSub, _NAMES, st.booleans()), st.builds(NumSub, _NUMBERS), st.just(ColonSub())
)
_REFS = st.builds(TensorRef, _NAMES, st.none() | st.lists(_SUBS, min_size=1, max_size=3).map(tuple))


def _tuples(inner, max_size=3):
    return st.lists(inner, min_size=1, max_size=max_size).map(tuple)


_EXPRS = st.recursive(
    st.builds(Num, _NUMBERS) | _REFS,
    lambda inner: st.one_of(
        st.builds(Binary, st.sampled_from(
            ["*", "\\", "/", ".*", "./", ".\\", ".^", "+", "-",
             "==", "~=", "<", ">", "<=", ">=", "&", "|"]), inner, inner),
        st.builds(Unary, st.sampled_from(["neg", "pos", "not"]), inner),
        st.builds(Postfix, st.sampled_from(["'", ".'"]), inner),
        st.builds(Call, st.sampled_from(["abs", "round", "isequal", "ones"]), _tuples(inner)),
        st.builds(Call, st.just("cat"), st.tuples(_SUBS, inner, inner)),
        st.builds(Bracket, _tuples(_tuples(inner))),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(node=_EXPRS, target=_REFS)
def test_print_ast_roundtrips_random_trees(node, target):
    assert parse(print_ast(node)) == ("expr", node)
    assignment = Assign(target, node)
    assert parse(print_ast(assignment)) == ("assign", assignment)


# -- evaluation -----------------------------------------------------------------


def test_eval_ternary_inner():
    env = env_with_vectors()
    _, node = parse("a(i)*b(i)*c(~i)")
    got = evaluate(node, env)
    assert got.entries.ravel()[0] == 63.0


def test_eval_reassociated_pairing_matches():
    env = env_with_vectors()
    left = evaluate(parse("a(i)*b(i)*c(~i)")[1], env)
    right = evaluate(parse("b(i)*(a(~i)*c(~i))")[1], env)
    assert left.entries.ravel()[0] == right.entries.ravel()[0] == 63.0


def test_eval_assign_binds():
    env = env_with_vectors()
    env.tensors["y"] = with_indices(
        np.arange(6.0).reshape(1, 1, 2, 3), [env.index("j"), env.index("i")]
    )
    evaluate(parse("z(i,~j) = y(~j,i)")[1], env)
    z = env.tensors["z"]
    assert z.entries.shape == (1, 1, 3, 2)
    assert z.indices == (env.index("i"), ~env.index("j"))
    np.testing.assert_array_equal(
        z.entries[0, 0], np.arange(6.0).reshape(2, 3).T
    )


def test_eval_cat():
    env = Environment.with_seed(0)
    i, j, k = env.index("i"), env.index("j"), env.index("k")
    env.tensors["A"] = with_indices(np.random.rand(1, 1, 2, 3), [i, j])
    env.tensors["B"] = with_indices(np.random.rand(1, 1, 3, 2), [j, k])
    got = evaluate(parse("cat(j,A(i,j),B(j,k))")[1], env)
    assert got.degree == 3
    assert got.entries.shape == (1, 1, 2, 6, 2)


def test_eval_norm_via_quote():
    env = Environment.with_seed(0)
    k = env.index("k")
    x = (np.arange(4) + 1.0) * 1j
    env.tensors["x"] = with_indices(x.reshape(4, 1), [~k])
    got = evaluate(parse("x(~k)'*x(~k)")[1], env)
    np.testing.assert_allclose(got.entries.ravel()[0], (np.abs(x) ** 2).sum())


def test_eval_isequal_variant_conflict():
    env = env_with_vectors()
    assert evaluate(parse("isequal(a(i),a(i))")[1], env) is True
    assert evaluate(parse("isequal(a(i),a(~i))")[1], env) is False


def test_eval_numeric_subscripts():
    env = env_with_vectors()
    got = evaluate(parse("a(1,1,2)")[1], env)
    assert got.entries.ravel()[0] == 2.0


def test_eval_unknown_name():
    with pytest.raises(UnknownNameError):
        evaluate(parse("nope(i)")[1], Environment())


def test_eval_mixed_subscripts_rejected():
    env = env_with_vectors()
    with pytest.raises(SubscriptKindError):
        evaluate(parse("a(i,1)")[1], env)


@pytest.mark.parametrize("text, message", [
    ("a(1) = b", "assignment subscripts must be index names"),
    ("cat(:, a, a)", "cat needs an index name or dimension number first"),
])
def test_a_subscript_of_the_wrong_kind_is_rejected(text, message):
    with pytest.raises(SubscriptKindError, match=message):
        evaluate(parse(text)[1], env_with_vectors())


def test_eval_rand_seed_reproducible():
    e1 = Environment.with_seed(42)
    e2 = Environment.with_seed(42)
    v1 = evaluate(parse("rand(1,1,4)")[1], e1)
    v2 = evaluate(parse("rand(1,1,4)")[1], e2)
    np.testing.assert_array_equal(v1.entries, v2.entries)


def test_json_record():
    env = env_with_vectors()
    rec = to_json_record(evaluate(parse("a(i)")[1], env), env)
    assert rec["dims"] == [1, 1, 2]
    assert rec["indices"] == [{"name": "i", "variant": True}]
    assert rec["value"] == [[[1.0, 2.0]]]
    json.dumps(rec)


# -- scripts -----------------------------------------------------------------------


def test_run_script_pass(tmp_path):
    path = tmp_path / "ok.rts"
    path.write_text(
        "# a tiny script\n"
        "a = round(rand(1,1,4)*8,0)\n"
        "b = round(rand(1,1,4)*8,0)\n"
        "s = a(i)*b(i)*a(~i)\n"
        "assert isequal(s, a(i)*(b(~i)*a(~i)))\n"
    )
    report = run_script(path, emit=lambda *_: None)
    assert report.ok and report.statements == 4


def test_run_script_empty(tmp_path):
    path = tmp_path / "empty.rts"
    path.write_text("")
    report = run_script(path, emit=lambda *_: None)
    assert report.ok and report.statements == 0


def test_run_script_unknown_name(tmp_path):
    path = tmp_path / "bad.rts"
    path.write_text("a = rand(1,1,2)\nmissing(i)\n")
    lines = []
    report = run_script(path, emit=lines.append)
    assert not report.ok
    assert "2" in report.failures[0]


def test_run_script_failing_assert_stops(tmp_path):
    path = tmp_path / "fail.rts"
    path.write_text("assert isequal(rand(1,1,2), rand(1,1,2))\nassert 1 == 1\n")
    report = run_script(path, emit=lambda *_: None)
    assert not report.ok and report.statements == 1


def test_run_script_reports_columns_as_the_file_has_them(tmp_path):
    path = tmp_path / "indented.rts"
    path.write_text("    x = (1  # unclosed\n")
    report = run_script(path, emit=lambda *_: None)
    assert report.failures == [f"{path}:1: error: expected ')', found '' (at 1:11)"]
    path.write_text("  assert 1 == 2  # false\n")
    report = run_script(path, emit=lambda *_: None)
    assert report.failures == [f"{path}:1: assert failed: assert 1 == 2"]


# -- command line --------------------------------------------------------------------


def test_cli_eval_json(capsys):
    code = rt_main(["eval", "a(i)*b(i)*c(~i)", "--seed", "3",
                    "--define", "a=round(rand(1,1,3)*4,0)",
                    "--define", "b=round(rand(1,1,3)*4,0)",
                    "--define", "c=round(rand(1,1,3)*4,0)",
                    "--json"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["dims"] == [1, 1]


def test_cli_eval_cat_along_an_index_dimension_of_unequal_sizes(capsys):
    code = rt_main(["eval", "cat(3, a(i), b(i))",
                    "--define", "a=ones(1,1,2)", "--define", "b=zeros(1,1,3)", "--json"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["dims"] == [1, 1, 5]


def _no_constant(token):
    raise ValueError(f"not JSON: {token}")


@pytest.mark.parametrize("text, entry", [
    ("log(0) - log(0)", "NaN"), ("-log(0)", "Infinity"), ("log(0)", "-Infinity"),
])
def test_cli_json_writes_non_finite_entries_as_strings(tmp_path, capsys, text, entry):
    assert rt_main(["eval", text, "--json"]) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert rec["value"] == [[entry]]
    script = tmp_path / "s.rts"
    script.write_text(f"x = [1 2] .* ({text})\n")
    assert rt_main(["run", str(script), "--json"]) == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert rec["value"] == [[entry, entry]]
    assert np.array_equal([float(v) for v in rec["value"][0]], [float(entry)] * 2, equal_nan=True)


def test_json_record_writes_non_finite_complex_parts_as_strings():
    t = with_indices(np.array([[complex(np.inf, np.nan), complex(1, -np.inf)]]), [])
    rec = to_json_record(t)
    assert rec["value"] == {"real": [["Infinity", 1.0]], "imag": [["NaN", "-Infinity"]]}
    json.dumps(rec, allow_nan=False)


def test_cli_run_json_records_carry_the_line_and_asserts_stay_text(tmp_path, capsys):
    script = tmp_path / "s.rts"
    script.write_text("a = ones(1,1,2)\n# a comment\nassert isequal(a, a)\nb = a(i) .* 2\n")
    assert rt_main(["run", str(script), "--json"]) == 0
    first, middle, last = capsys.readouterr().out.splitlines()
    assert json.loads(first) == {"line": 1, "value": [[[1.0, 1.0]]], "dims": [1, 1, 2],
                                 "indices": [{"name": None, "variant": True}]}
    assert middle == f"{script}:3: assert ok"
    assert json.loads(last) == {"line": 4, "value": [[[2.0, 2.0]]], "dims": [1, 1, 2],
                                "indices": [{"name": "i", "variant": True}]}


@pytest.mark.parametrize("text, word, value", [
    ("isequal(1, 1)", "true", True), ("isequal(1, 2)", "false", False),
])
def test_cli_eval_prints_an_isequal_result(capsys, text, word, value):
    assert rt_main(["eval", text]) == 0
    assert capsys.readouterr().out == f"{word}\n"
    assert rt_main(["eval", text, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": value, "dims": [], "indices": []}


def test_cli_rejects_a_define_that_is_not_an_assignment(capsys):
    assert rt_main(["eval", "1", "--define", "a+1"]) == 1
    assert capsys.readouterr().err == "error: malformed --define 'a+1', expected name=expr\n"


@pytest.mark.parametrize("argv", [
    ["-isequal(1,1)"],
    ["-isequal(1,1)", "--seed", "2", "--define", "a=ones(1)"],
    ["--seed", "2", "--define", "a=ones(1)", "-isequal(1,1)"],
    ["--seed", "2", "-isequal(1,1)", "--define", "a=ones(1)"],
])
def test_cli_eval_takes_a_statement_that_starts_with_a_minus(capsys, argv):
    assert rt_main(["eval", *argv]) == 0
    assert capsys.readouterr().out == "degree 0, 1x1, real64: [-1]\n"


def test_cli_eval_json_before_a_statement_that_starts_with_a_minus(capsys):
    assert rt_main(["eval", "--json", "-isequal(1,1)"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 1]


@pytest.mark.parametrize("text, value", [("--a", [[[1, 1]]]), ("--a+1", [[[2, 2]]])])
def test_cli_eval_takes_a_statement_that_starts_with_two_minuses(capsys, text, value):
    assert rt_main(["eval", "--json", "--define", "a=ones(2)", text]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == value


def _rand2(capsys, *argv):
    assert rt_main(["eval", "--json", *argv, "rand(2)"]) == 0
    return json.loads(capsys.readouterr().out)["value"]


@pytest.mark.parametrize("argv", [["--seed=3"], ["--se", "3"], ["--se=3"]])
def test_cli_eval_reads_an_option_given_with_its_value_or_abbreviated(capsys, argv):
    want = _rand2(capsys, "--seed", "3")
    assert _rand2(capsys) != want  # the seed shows in the draw
    assert _rand2(capsys, *argv) == want


@pytest.mark.parametrize("text, dims", [
    ("G(k) * E(k)", [1, 1, 0]),
    ("G(k) .* E(k)", [1, 1, 0]),
    ("zeros(3,0) \\ zeros(3,2)", [0, 2]),
    ("zeros(2,2) / G(k)", [2, 2, 0]),
])
def test_cli_eval_on_a_size_zero_dimension(capsys, text, dims):
    code = rt_main(["eval", text, "--define", "G=zeros(1,1,0)", "--define", "E=ones(1,1,1)",
                    "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dims"] == dims


@pytest.mark.parametrize("text, n", [
    ("ones(3)", 3), ("zeros(0)", 0), ("rand(4)", 4), ("a(1,:)", 2), ("a(:,1)", 2), ("b(1,1,:)", 4),
])
def test_a_one_dimensional_result_is_degree_one(capsys, text, n):
    code = rt_main(["eval", text, "--define", "a=[1 2; 3 4]", "--define", "b=rand(2,3,4)", "--json"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["dims"] == [1, 1, n]
    assert len(rec["indices"]) == 1


@pytest.mark.parametrize("text, message", [
    ("b(i) = m(i,j)", "subscripts do not cover index j"),
    ("a(k) + c(k)", "index k has sizes 3 and 4 across operands"),
    ("a(k) .* c(~k)", "index ~k has sizes 3 and 4 across operands"),
    ("x(i) = ones(3)", "subscripts do not cover index (unnamed)"),  # not the i<id> ones(3) minted
    ("b(k, ~k) = a(k)", "indexed assignment lists an identity twice"),
])
def test_an_error_names_indices_as_the_statement_does(tmp_path, capsys, text, message):
    defines = ["--define", "m=[1 2; 3 4]", "--define", "a=ones(3)", "--define", "c=ones(4)"]
    assert rt_main(["eval", text, *defines]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    script = tmp_path / "s.rts"
    script.write_text(text + "\n")
    assert rt_main(["run", str(script), *defines]) == 1
    assert capsys.readouterr().out == f"{script}:1: error: {message}\n"


def test_a_binding_named_like_an_engine_index_keeps_its_name_in_errors(tmp_path, capsys):
    env = Environment()
    j = env.index("j")
    script = tmp_path / "s.rts"
    script.write_text(f"x(j) = i{j.id}\n")
    assert not run_script(script, env).ok
    assert capsys.readouterr().out == f"{script}:1: error: unknown name 'i{j.id}'\n"
    # here j is the first index rt eval names, so it takes the next identity
    n = fresh().id + 1
    assert rt_main(["eval", f"a(j) + i{n}", "--define", "a=[1 2]"]) == 1
    assert capsys.readouterr().err == f"error: unknown name 'i{n}'\n"


@pytest.mark.parametrize("define, text, code, line", [
    ("t=isequal(1,1)", "t(i)", 0, 2),
    ("t=isequal(1,1)", "t(1)", 0, 2),
    ("1x=ones(3)", "x", 1, 1),  # a syntax error, not a binding named 1x
])
def test_a_define_binds_as_the_same_line_of_a_script_does(tmp_path, capsys, define, text, code, line):
    script = tmp_path / "s.rts"
    script.write_text(f"{define}\n{text}\n")
    assert rt_main(["run", str(script)]) == code
    ran = capsys.readouterr().out.splitlines()[-1]
    assert rt_main(["eval", text, "--define", define]) == code
    out = capsys.readouterr()
    printed = out.err if code else out.out
    assert printed.startswith("error: ") == bool(code)
    assert ran == f"{script}:{line}: {printed.rstrip()}"


# cat and isequal take any number of arguments
@pytest.mark.parametrize("fn, most", [
    *((fn, 1) for fn in ("trace", "diag", "abs", "log", "exp", "conj", "step")),
    ("round", 2), ("ones", 64), ("zeros", 64), ("rand", 64),
])
def test_a_function_given_one_argument_too_many_is_reported(capsys, fn, most):
    # the extra argument is unbound: the count is checked before any argument
    assert rt_main(["eval", f"{fn}({'1,' * most}nope)"]) == 1
    takes = f"{most} argument{'s' * (most > 1)}"
    assert capsys.readouterr().err == f"error: {fn} takes at most {takes}, got {most + 1}\n"


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
def test_cli_run_on_a_script_it_cannot_read_is_reported(tmp_path, capsys, case):
    path = tmp_path / "script.rts"
    if case == "directory":
        path.mkdir()
    elif case == "not utf-8":
        path.write_bytes(b"x = 1\n\xff\xfe\n")
    assert rt_main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("precision", ["1e300", "log(0) - log(0)", "log(0)", "2.5", "zeros(1,0)"])
def test_round_precision_that_is_not_an_integer_is_reported(capsys, precision):
    assert rt_main(["eval", f"round(ones(2), {precision})"]) == 1
    assert "error: round precision must be one integer" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", [
    "exp(1000*ones(1))",
    "(1e300*ones(1)) .* (1e300*ones(1))",
    "(1e300*ones(1)) ./ (1e-300*ones(1))",
    "(1e300*ones(1)) .^ 2",
    "x(i) .* y(~i)",
    "trace(1e308*ones(2,2))",
])
def test_overflow_gives_inf_without_a_warning(text):
    env = Environment()
    for name in "xy":
        env.tensors[name] = evaluate(parse("1e200*ones(3)")[1], env)
    assert np.all(np.isposinf(evaluate(parse(text)[1], env).entries))


def _subs(name, n):
    return ",".join(f"{name}{k}" for k in range(n))


@pytest.mark.parametrize("text, degree", [
    pytest.param(f"a({_subs('i', 63)})", 63, id="reindex"),
    pytest.param(f"b({_subs('i', 63)}) = a", 63, id="assign"),
    pytest.param(f"a({_subs('j', 40)}) * a({_subs('k', 40)})", 80, id="product"),
    pytest.param(f"a({_subs('j', 40)}) + a({_subs('k', 40)})", 80, id="add"),
])
def test_a_degree_beyond_numpys_axis_limit_is_reported(capsys, text, degree):
    assert rt_main(["eval", text, "--define", "a=ones(1,1)"]) == 1
    assert f"error: degree {degree} exceeds the 62 indices" in capsys.readouterr().err


@pytest.mark.parametrize("fn", ["ones", "zeros", "rand"])
@pytest.mark.parametrize("n", [100000, 10000000000])  # petabytes: fails before allocating
def test_an_array_too_large_to_allocate_is_reported(capsys, fn, n):
    assert rt_main(["eval", f"{fn}({n},{n},{n})"]) == 1
    assert f"error: {fn}({n}, {n}, {n}) is too large to allocate" in capsys.readouterr().err


def test_cli_eval_summary(capsys):
    assert rt_main(["eval", "rand(2,3)"]) == 0
    out = capsys.readouterr().out
    assert "degree 0" in out and "2x3" in out


def test_cli_run_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.rts"
    good.write_text("assert 1 == 1\n")
    bad = tmp_path / "bad.rts"
    bad.write_text("assert 1 == 2\n")
    assert rt_main(["run", str(good)]) == 0
    assert rt_main(["run", str(bad)]) == 1


def test_eval_and_run_agree_on_an_empty_assert(tmp_path, capsys):
    script = tmp_path / "empty_assert.rts"
    script.write_text("assert zeros(1,0)\n")
    assert rt_main(["eval", "assert zeros(1,0)"]) == 1
    assert capsys.readouterr().out == "assert failed\n"
    assert rt_main(["run", str(script)]) == 1


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "rtensor.cli", "eval", "1+1"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "2" in out.stdout


@pytest.mark.parametrize("text", ["ones(2,3) + ones(3,2)", "ones(2,3) < ones(3,2)",
                                  "ones(2,3) & ones(3,2)"])
def test_matrix_axes_that_do_not_broadcast_are_reported(tmp_path, capsys, text):
    assert rt_main(["eval", text]) == 1
    assert "error: matrix dimensions do not broadcast: 2x3" in capsys.readouterr().err
    script = tmp_path / "s.rts"
    script.write_text(text + "\n")
    assert rt_main(["run", str(script)]) == 1
    assert "error: matrix dimensions do not broadcast: 2x3" in capsys.readouterr().out


def test_cat_along_dimension_zero_is_reported(capsys):
    assert rt_main(["eval", "cat(0, ones(2), ones(2))"]) == 1
    assert "error: concatenation axis 0 lies before the first dimension" in capsys.readouterr().err


@pytest.mark.parametrize("text, dims", [("cat(9, ones(2))", 3), ("cat(9, ones(2), ones(2))", 4)])
def test_cat_beyond_the_operand_dimensions_is_reported_for_any_operand_count(capsys, text, dims):
    assert rt_main(["eval", text]) == 1
    assert capsys.readouterr().err == (
        f"error: concatenation axis 9 lies beyond the operands' {dims} dimensions\n")


@pytest.mark.parametrize("argv", [["eval", "1"], ["run", "script.rts"]])
def test_a_negative_seed_is_reported(capsys, argv):
    assert rt_main([*argv, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be non-negative, got -1\n"


def test_environment_rejects_a_negative_seed():
    with pytest.raises(BoundsError, match="seed must be non-negative, got -3"):
        Environment.with_seed(-3)


@pytest.mark.parametrize("text", ["a(1.5)", "a(1,2.9)", "cat(2.5, a, a)", "ones(2.5)"])
def test_a_fractional_integer_literal_is_rejected(text):
    env = Environment.with_seed(0)
    evaluate(parse("a = [1 2; 3 4]")[1], env)
    with pytest.raises(SubscriptKindError, match="must be an integer literal"):
        evaluate(parse(text)[1], env)
    assert evaluate(parse("a(2.0)")[1], env).entries.ravel().tolist() == [2.0]


# -- syntax tree nodes ----------------------------------------------------------

_NODE_TYPES = (Assign, Binary, Bracket, Call, ColonSub, IndexSub, Num, NumSub, Postfix, TensorRef, Unary)


def _nodes(value):
    """Every node in ``value``, a node or a tuple of them, outermost first."""
    if isinstance(value, _NODE_TYPES):
        yield value
        for name in type(value).__annotations__:
            yield from _nodes(getattr(value, name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)


def test_syntax_tree_nodes_are_immutable_hashable_values():
    text = "u(i,~l) = -A(l,lp)\\b(i,lp)' + [1 x(:,2).'; cat(i, x(:,1), 2.5)] & ~m(i)"
    node, again = parse(text)[1], parse(text)[1]
    assert node == again and node is not again
    assert hash(node) == hash(again) and len({node, again}) == 1
    nodes = list(_nodes(node))
    assert {type(n) for n in nodes} == set(_NODE_TYPES)
    for n in nodes:
        for name in [*type(n).__annotations__, "extra"]:
            with pytest.raises(AttributeError):
                setattr(n, name, None)
    assert parse(text.replace("2.5", "3.5"))[1] != node
    # equal fields in another class, or in a plain tuple, make a different value
    assert Num(2.0) != NumSub(2.0) and not Num(2.0) == NumSub(2.0)
    assert Call("abs", (Num(1.0),)) != TensorRef("abs", (Num(1.0),))
    assert IndexSub("i", True) != ("i", True) and ColonSub() != ()


# -- nesting beyond the recursion limit ------------------------------------------

_DEEP = {
    "parentheses": "(" * 2000 + "a" + ")" * 2000,
    "prefix": "-" * 5000 + "a",
    "postfix": "a" + "'" * 5000,
    "sum": "+".join(["a"] * 5000),
}


@pytest.mark.parametrize("name", ["parentheses", "prefix"])
def test_text_nested_too_deeply_to_parse_raises_a_syntax_error(name):
    with pytest.raises(ExprSyntaxError, match=r"^expression nests too deeply \(at 1:\d+\)$"):
        parse(_DEEP[name])


@pytest.mark.parametrize("name", ["postfix", "sum"])
def test_a_tree_nested_too_deeply_to_evaluate_or_print_raises_a_typed_error(name):
    from rtensor.errors import NestingError

    kind, node = parse(_DEEP[name])
    with pytest.raises(NestingError, match="^expression nests too deeply to evaluate$"):
        evaluate(node, env_with_vectors())
    with pytest.raises(NestingError, match="^expression nests too deeply to print$"):
        print_ast(node)


@pytest.mark.parametrize("name", sorted(_DEEP))
def test_rt_reports_deep_input_on_an_error_line(tmp_path, name):
    script = tmp_path / "deep.rts"
    script.write_text(f"a = ones(2)\n{_DEEP[name]}\n")
    for argv, stream in ((["eval", "--define", "a=ones(2)", "--", _DEEP[name]], "stderr"),
                         (["run", str(script)], "stdout")):
        out = subprocess.run([sys.executable, "-m", "rtensor.cli", *argv], capture_output=True, text=True)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        assert "error: expression nests too deeply" in getattr(out, stream)


# -- the random source --------------------------------------------------------------


def test_rt_eval_without_rand_leaves_numpy_random_unloaded():
    code = ("import sys; from rtensor.cli import main; main(['eval', '1+1']); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.split()[-1] == "False"


@pytest.mark.parametrize("seed, first", [
    (0, ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"]),
    (7, ["0x1.400c8353e3ca9p-1", "0x1.cb5f9b795e4cdp-1", "0x1.8d26acbf2815fp-1"]),
])
def test_rand_draws_from_a_generator_seeded_as_before(seed, first):
    env = Environment.with_seed(seed)
    draws = [evaluate(parse(text)[1], env).entries for text in ("rand(1,1,3)", "rand(2,3)")]
    assert [float(v).hex() for v in draws[0].ravel()] == first
    rng = np.random.default_rng(seed)
    np.testing.assert_array_equal(draws[0], rng.uniform(size=(1, 1, 3)))
    np.testing.assert_array_equal(draws[1], rng.uniform(size=(2, 3)))
    if seed == 0:
        default = evaluate(parse("rand(1,1,3)")[1], Environment())
        assert [float(v).hex() for v in default.entries.ravel()] == first
