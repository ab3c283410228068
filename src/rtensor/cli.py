"""Command line driver for the expression language (`rt`).

``rt eval "<expr>"`` evaluates one statement against a fresh environment;
``rt run <script>`` executes a statement-per-line script, failing on the
first error or false assertion.  ``--define name=<expr>`` runs that
assignment first, as a script line would (e.g. ``--define a=rand(1,1,4)``),
and ``--json`` emits machine-readable records instead of summaries.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dsl import (
    Environment, EngineError, _error_text, _truthy, evaluate, parse, run_script, summarize,
    to_json_record,
)


def _apply_defines(env, defines):
    for item in defines or []:
        kind, node = parse(item)
        if kind != "assign":
            raise EngineError(f"malformed --define {item!r}, expected name=expr")
        evaluate(node, env)


def _cmd_eval(args, env) -> int:
    kind, node = parse(args.expression)
    value = evaluate(node, env)
    if kind == "assert":
        ok = _truthy(value)
        print("assert ok" if ok else "assert failed")
        return 0 if ok else 1
    if args.json:
        print(json.dumps(to_json_record(value, env), allow_nan=False))
    else:
        print(summarize(value, env))
    return 0


def _cmd_run(args, env) -> int:
    report = run_script(args.script, env, json_records=args.json)
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with a minus as a positional unless it
    is one of the parser's options, so ``rt eval "-isequal(1,1)"`` and
    ``rt eval "--a"`` take the statement.  An argument that starts with two
    is an option also when it abbreviates one, alone or as ``--name=value``,
    and then parses as argparse parses it."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string not in self._option_string_actions:
            name = arg_string.partition("=")[0]
            if arg_string[:2] != "--" or not any(o.startswith(name) for o in self._option_string_actions):
                return None
        return super()._parse_optional(arg_string)


def main(argv=None) -> int:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--define", action="append", metavar="name=expr")
    common.add_argument("--json", action="store_true")
    parser = _Parser(prog="rt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate one expression")
    p.add_argument("expression")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("run", parents=[common], help="run a script of statements")
    p.add_argument("script")
    p.set_defaults(fn=_cmd_run)

    args = parser.parse_args(argv)
    env = None
    try:
        env = Environment.with_seed(args.seed)
        _apply_defines(env, args.define)
        return args.fn(args, env)
    except EngineError as exc:
        print(f"error: {_error_text(exc, env)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
