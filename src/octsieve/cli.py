"""Command-line front end: tables, triplets, orbit, sieve, derive, verify.

Each command computes one payload dict and :func:`main` alone prints it:
`--format json` as a versioned schema, the default text through the
command's renderer, which reads only the payload (and argv).  JSON output
is exactly the bytes of ``json.dumps(payload, indent=2)``, written by
:func:`_json`: json's indent path always runs its pure-Python encoder.
Compact output, faster still, was rejected because it changes the
format.  Text prints
integers exactly, floats with %g and a ``Fraction`` (`sieve` and `derive`
read floats as exact rationals) as p/q, as JSON does unless it is an int.
All output is rendered before any is printed, so a command that fails
leaves stdout empty.  Python's int/str digit limit (4300 digits by
default) stays in force, since it guards against quadratic-time
conversion: a longer literal or result exits 1.  Output is deterministic
for a fixed argv (randomness only enters through --seed).  Exit codes: 0
success, 1 domain error, failed verification or a closed output pipe, 2
usage error.

Every call pays this module's import first, so it imports at the top only
what `tables`, `triplets`, `orbit`, `sieve`, JSON output and :func:`main`
run: ``algebra``, ``dsl`` and ``sieve``.  ``derivations`` (`derive`) and
``verification`` (`verify`) are imported inside the functions that use
them, and compiled, when no ``.pyc`` file exists, in the call that first
needs them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import Octonion, _check_algebra_id, _check_int, generator_word, mul_table, parity_word, triplet_set
from .dsl import ExprSyntaxError, _number, parse, to_text
from .sieve import _COEFF_BOUND, _SEED, _TRIALS, _ZERO, _evaluator, _per_rule, _spectrum, _trials, random_assignment

SCHEMA_VERSION = 3


class CliError(Exception):
    """Domain-level failure; printed to stderr, exit code 1."""


def _parse_octonion(text: str) -> Octonion:
    """Either a basis shorthand like 'i3' (or '1') or 8 comma-separated reals.

    Each real is an ``--expr`` number literal with an optional sign, read
    by ``dsl._number`` (``.5``, ``inf`` are bad); an integral float is an int.
    """
    t = text.strip()
    if t == "1":
        return Octonion.one()
    if re.fullmatch(r"i[1-7]", t):
        return Octonion.unit(int(t[1]))
    parts = t.split(",")
    if len(parts) != 8:
        raise CliError(f"octonion literal needs 8 comma-separated reals or iK, got {text!r}")
    coeffs = []
    for p in parts:
        try:
            value = _number(p)
        except ValueError:
            raise CliError(f"bad coefficient {p!r} in {text!r}") from None
        coeffs.append(int(value) if type(value) is float and value.is_integer() else value)
    return Octonion(coeffs)


def _fmt_coeffs(coeffs) -> str:
    """Floats with %g, ints and Fractions (p/q) by str: format(Fraction, "g") needs Python 3.12."""
    return "(" + ", ".join(f"{c:g}" if isinstance(c, float) else str(c) for c in coeffs) + ")"


def _json_exact(c):
    """A ``Fraction`` in JSON: an int when its denominator is 1, else "p/q"."""
    return c.numerator if c.denominator == 1 else str(c)


def _json(value, indent: str = "\n") -> str:
    """``value``, a payload of dicts with str keys, lists, tuples and
    scalars, as ``json.dumps(value, indent=2, default=_json_exact)`` writes
    it, ``indent`` being a newline and the spaces of its nesting depth.
    json's indent path runs its pure-Python encoder; this is the same
    recursion with its ints, the bulk of every payload, written without a
    call, and every other scalar left to json's C encoder."""
    t = type(value)
    if t is list or t is tuple or t is dict:
        if not value:
            return "{}" if t is dict else "[]"
        inner = indent + "  "
        if t is dict:
            items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        items = [int.__repr__(v) if type(v) is int else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if t is int:
        return int.__repr__(value)  # past the digit limit: ValueError
    return json.dumps(value, default=_json_exact)  # a scalar: the same text at any depth


def _assignment_lines(assignment: dict):
    for name in sorted(assignment):
        yield f"  {name} = {_fmt_coeffs(assignment[name])}"


def cmd_tables(args) -> dict:
    entries = [[[s, k] for s, k in row] for row in mul_table(args.algebra)]
    return {"algebra": args.algebra, "entries": entries, **cmd_triplets(args)}


def text_tables(payload: dict, args):
    n = payload["algebra"]
    labels = ["1"] + [f"i{k}" for k in range(1, 8)]
    yield f"multiplication table, algebra {n} ({'right' if n & 8 else 'left'}-handed)"
    yield "     " + " ".join(f"{l:>3}" for l in labels)
    for label, row in zip(labels, payload["entries"]):
        entries = (("+" if sign > 0 else "-") + labels[k] for sign, k in row)
        yield f"{label:>3} |" + " ".join(f"{e:>3}" for e in entries)


def cmd_triplets(args) -> dict:
    triplets, word = triplet_set(args.algebra)
    return {"algebra": args.algebra, "triplets": [list(t) for t in triplets], "parity_word": word}


def text_triplets(payload: dict, args):
    word = payload["parity_word"]
    yield f"algebra {payload['algebra']}: parity word {word}"
    for sign, (l, m, k) in zip(word, payload["triplets"]):
        yield f"  {sign} ({l}, {m}, {k})"


def cmd_orbit(args) -> dict:
    return {"orbit": [{"algebra": n, "generator": generator_word(n), "parity_word": parity_word(n)}
                      for n in range(16)]}


def text_orbit(payload: dict, args):
    yield " N  generator   parity"
    for e in payload["orbit"]:
        yield f"{e['algebra']:>2}  {e['generator']:<10}  {e['parity_word']}"


def _expr_and_env(args) -> tuple:
    """The expression, its all-rules evaluator, the assignment and the rng
    that drew it (or None).  --seed and sieve's --trials belong to
    --random-assign, which sets those left unset (None) to _SEED and _TRIALS."""
    try:
        tree = parse(args.expr)
    except ExprSyntaxError as exc:
        raise CliError(f"expression syntax error: {exc}") from None
    if args.assign:
        draws = {"--random-assign": args.random_assign or None, "--seed": args.seed,
                 "--trials": getattr(args, "trials", None)}
        if given := [flag for flag, value in draws.items() if value is not None]:
            raise CliError(f"--assign and {given[0]} are mutually exclusive")
        env = {}
        for pair in args.assign:
            name, eq, value = pair.partition("=")
            name = name.strip()
            if not eq or not name:
                raise CliError(f"--assign needs name=v0,...,v7 (got {pair!r})")
            if name in env:
                raise CliError(f"--assign binds {name} more than once")
            env[name] = _parse_octonion(value)
        names, values = _evaluator(tree)
        missing = [n for n in names if n not in env]
        if missing:
            raise CliError(f"unbound variables: {', '.join(missing)} (add --assign)")
        return tree, values, env, None
    if not args.random_assign:
        raise CliError("provide --assign for every variable or --random-assign")
    args.seed = _SEED if args.seed is None else args.seed
    if "trials" in args:  # before anything is compiled
        args.trials = _check_int(_TRIALS if args.trials is None else args.trials, "trials", 1)
    names, values = _evaluator(tree)
    rng = random.Random(args.seed)
    return tree, values, random_assignment(names, rng), rng


def cmd_sieve(args) -> dict:
    tree, values, env, rng = _expr_and_env(args)
    value, verdict = _trials(values, env, rng, args.trials if args.random_assign else 1)
    spectrum = _spectrum(value)
    w = verdict.witness
    return {
        "expr": to_text(tree),
        "assignment": {name: list(x) for name, x in env.items()},
        "functions": [list(f) for f in _per_rule(value)],
        "distances": [[4 * c for c in spectrum.get(k, _ZERO)] for k in range(16)],
        "mean_function_value": list(spectrum.get(0, _ZERO)),
        "invariant": verdict.invariant,
        "trials_run": verdict.trials_run,
        "witness": None if w is None else {
            "assignment": {name: list(x) for name, x in w.assignment.items()},
            "index": w.index,
            "distance": list(w.distance),
        },
    }


def text_sieve(payload: dict, args):
    yield f"expr: {payload['expr']}"
    yield from _assignment_lines(payload["assignment"])
    yield "functions f[N]:"
    for n, f in enumerate(payload["functions"]):
        yield f"  f[{n:>2}] = {_fmt_coeffs(f)}"
    yield "distances g[k]:"
    for k, g in enumerate(payload["distances"]):
        yield f"  g[{k:>2}] = {_fmt_coeffs(g)}"
    yield f"mean function value g[0]/4 = {_fmt_coeffs(payload['mean_function_value'])}"
    trials_run, w = payload["trials_run"], payload["witness"]
    if w is None:
        scope = "for this assignment" if args.assign else f"(no counterexample in {trials_run} trials)"
        yield f"verdict: invariant {scope}"
    else:
        scope = "" if args.assign else f" (trial {trials_run} of {args.trials})"
        yield f"verdict: not invariant{scope}; witness g[{w['index']}] = {_fmt_coeffs(w['distance'])} at"
        yield from _assignment_lines(w["assignment"])


def cmd_derive(args) -> dict:
    from .derivations import _derive_all

    u = _parse_octonion(args.u)
    v = _parse_octonion(args.v)
    tree, values, env, _ = _expr_and_env(args)
    outputs = [list(o) for o in _derive_all(u, v, values(env))]
    return {
        "u": list(u),
        "v": list(v),
        "expr": to_text(tree),
        "assignment": {name: list(x) for name, x in env.items()},
        "algebras": list(range(16)),
        "outputs": outputs,
        "all_equal": all(o == outputs[0] for o in outputs),
        "equal_set": [n for n, o in enumerate(outputs) if o == outputs[0]],
    }


def text_derive(payload: dict, args):
    yield f"derivation D(u, v; {payload['expr']})"
    yield f"  u = {_fmt_coeffs(payload['u'])}"
    yield f"  v = {_fmt_coeffs(payload['v'])}"
    yield from _assignment_lines(payload["assignment"])
    for n, o in zip(payload["algebras"], payload["outputs"]):
        yield f"  D[{n:>2}] = {_fmt_coeffs(o)}"
    if payload["all_equal"]:
        yield "verdict: identical across all 16 algebras"
    else:
        yield f"verdict: varies across algebras; matches algebra 0 on {payload['equal_set']}"


def cmd_verify(args) -> dict:
    from .verification import run_checks

    results = run_checks()
    return {
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail, "elapsed_s": r.elapsed_s}
                   for r in results],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }


def text_verify(payload: dict, args):
    width = max(len(c["name"]) for c in payload["checks"])
    for c in payload["checks"]:
        yield f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']:<{width}}  {c['detail']}"
    yield f"{payload['passed']}/{payload['total']} checks passed"


def _algebra_arg(value: str) -> int:
    try:
        return _check_algebra_id(int(value))
    except ValueError:
        raise argparse.ArgumentTypeError("algebra id must be an integer in 0..15") from None


def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


# Built on the first call, not at import; parse_args leaves the parser as it
# was, so every later call reuses it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octsieve",
        description="the 16 equivalent octonion multiplication rules, their variance sieve, and derivation checks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Every option is declared once, in a parent.  A subcommand lists its
    # options in the order of its parents, so --format is always last.
    fmt = _options()
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    algebra = _options()
    algebra.add_argument("--algebra", type=_algebra_arg, required=True, metavar="N")
    expr = _options()
    expr.add_argument("--expr", required=True)
    expr.add_argument("--assign", action="append", default=[], metavar="NAME=V0,...,V7",
                      help="bind a variable to 8 comma-separated reals (repeatable)")
    expr.add_argument("--random-assign", action="store_true",
                      help=f"draw integer coefficients in -{_COEFF_BOUND}..{_COEFF_BOUND} from --seed")
    expr.add_argument("--seed", type=int,
                      help=f"seed of the --random-assign draws; an error with --assign (default: {_SEED})")
    sieve_opts = _options(expr)
    sieve_opts.add_argument("--trials", type=int, help="number of --random-assign trials, at least 1; "
                            f"an error with --assign (default: {_TRIALS})")
    uv = _options()
    uv.add_argument("--u", required=True, metavar="OCT", help="iK shorthand or 8 reals")
    uv.add_argument("--v", required=True, metavar="OCT")

    for name, cmd, render, parents, help in (
        ("tables", cmd_tables, text_tables, [algebra],
         "print the 8x8 signed multiplication table of one algebra"),
        ("triplets", cmd_triplets, text_triplets, [algebra],
         "print the oriented triplets and parity word of one algebra"),
        ("orbit", cmd_orbit, text_orbit, [], "print all 16 (algebra, generator word, parity word) rows"),
        ("sieve", cmd_sieve, text_sieve, [sieve_opts],
         "evaluate an expression under all 16 rules and sieve it"),
        ("derive", cmd_derive, text_derive, [uv, expr],
         "apply the inner derivation D(u, v; expr) per algebra"),
        ("verify", cmd_verify, text_verify, [], "run the full verification suite"),
    ):
        p = sub.add_parser(name, help=help, parents=[*parents, fmt])
        p.set_defaults(func=cmd, render=render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
        if args.format == "json":
            out = _json({"schema": SCHEMA_VERSION, **payload})
        else:
            out = "\n".join(args.render(payload, args))
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"octsieve: error: {exc}", file=sys.stderr)
        return 1
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`octsieve tables | head -1`): point
        # stdout at devnull, as the Python docs advise, so the flush at exit
        # cannot raise again, and exit 1 with nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # verify is the one command whose result can fail: a failed check exits 1
    return 1 if payload.get("passed", 0) < payload.get("total", 0) else 0


if __name__ == "__main__":
    sys.exit(main())
