"""Command-line front end: tables, triplets, orbit, sieve, derive, verify.

Output is deterministic for a fixed argv (randomness only enters through
--seed).  `--format json` emits a versioned schema on stdout; the default
is aligned human-readable text.  Exit codes: 0 success, 1 domain error or
failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from dataclasses import asdict

from . import __version__
from .algebra import Octonion, mul_table, triplet_set
from .automorphisms import chirality, orbit
from .derivations import derive
from .dsl import ExprSyntaxError, UnboundVariableError, evaluate, free_vars, parse, to_text
from .sieve import function_family, is_invariant, random_assignment, sieve
from .verification import run_checks

SCHEMA_VERSION = 1


class CliError(Exception):
    """Domain-level failure; printed to stderr, exit code 1."""


_INT_LITERAL = re.compile(r"\s*[+-]?(\d+)\s*")


def _parse_octonion(text: str) -> Octonion:
    """Either a basis shorthand like 'i3' (or '1') or 8 comma-separated reals.

    Integer literals stay exact Python ints up to Python's int/str digit
    limit (longer ones are a domain error); other literals are read as
    floats, and an integral float becomes an int.
    """
    t = text.strip()
    if t == "1":
        return Octonion.one()
    if len(t) == 2 and t[0] == "i" and t[1].isdigit() and t[1] != "0":
        k = int(t[1])
        if 1 <= k <= 7:
            return Octonion.unit(k)
    parts = t.split(",")
    if len(parts) != 8:
        raise CliError(f"octonion literal needs 8 comma-separated reals or iK, got {text!r}")
    coeffs = []
    for p in parts:
        try:
            coeffs.append(int(p))
        except ValueError:
            literal = _INT_LITERAL.fullmatch(p)
            if literal:  # a well-formed integer that int() refused: too many digits
                raise CliError(
                    f"integer literal of {len(literal[1])} digits exceeds Python's "
                    f"limit of {sys.get_int_max_str_digits()} digits for int/str conversion"
                ) from None
            try:
                value = float(p)
            except ValueError:
                raise CliError(f"bad coefficient {p!r} in {text!r}") from None
            coeffs.append(int(value) if value.is_integer() else value)
    return Octonion(coeffs)


def _parse_assignments(pairs: list[str]) -> dict[str, Octonion]:
    env = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name.strip():
            raise CliError(f"--assign needs name=v0,...,v7 (got {pair!r})")
        env[name.strip()] = _parse_octonion(value)
    return env


def _coeff_list(o: Octonion) -> list[float]:
    return list(o.coeffs)


def _fmt_coeffs(o: Octonion) -> str:
    return "(" + ", ".join(f"{c:g}" for c in o.coeffs) + ")"


def _entry_text(entry: tuple[int, int]) -> str:
    sign, k = entry
    name = "1" if k == 0 else f"i{k}"
    return ("+" if sign > 0 else "-") + name


def _print_json(payload: dict):
    print(json.dumps(payload, indent=2))


def cmd_tables(args) -> int:
    table = mul_table(args.algebra)
    if args.format == "json":
        triplets, word = triplet_set(args.algebra)
        _print_json(
            {
                "schema": SCHEMA_VERSION,
                "algebra": args.algebra,
                "entries": [[[s, k] for s, k in row] for row in table],
                "triplets": [list(t) for t in triplets],
                "parity_word": word,
            }
        )
        return 0
    labels = ["1"] + [f"i{k}" for k in range(1, 8)]
    print(f"multiplication table, algebra {args.algebra} ({chirality(args.algebra)}-handed)")
    print("     " + " ".join(f"{l:>3}" for l in labels))
    for i, row in enumerate(table):
        print(f"{labels[i]:>3} |" + " ".join(f"{_entry_text(e):>3}" for e in row))
    return 0


def cmd_triplets(args) -> int:
    triplets, word = triplet_set(args.algebra)
    if args.format == "json":
        _print_json(
            {
                "schema": SCHEMA_VERSION,
                "algebra": args.algebra,
                "triplets": [list(t) for t in triplets],
                "parity_word": word,
            }
        )
        return 0
    print(f"algebra {args.algebra}: parity word {word}")
    for sign, (l, m, k) in zip(word, triplets):
        print(f"  {sign} ({l}, {m}, {k})")
    return 0


def cmd_orbit(args) -> int:
    entries = orbit()
    if args.format == "json":
        _print_json(
            {
                "schema": SCHEMA_VERSION,
                "orbit": [
                    {"algebra": e.algebra, "generator": e.automorphism.word, "parity_word": e.parity_word}
                    for e in entries
                ],
            }
        )
        return 0
    print(" N  generator   parity")
    for e in entries:
        print(f"{e.algebra:>2}  {e.automorphism.word:<10}  {e.parity_word}")
    return 0


def _expr_and_env(args) -> tuple:
    try:
        tree = parse(args.expr)
    except ExprSyntaxError as exc:
        raise CliError(f"expression syntax error: {exc}") from None
    names = free_vars(tree)
    if args.assign and args.random_assign:
        raise CliError("--assign and --random-assign are mutually exclusive")
    if args.assign:
        env = _parse_assignments(args.assign)
        missing = [n for n in names if n not in env]
        if missing:
            raise CliError(f"unbound variables: {', '.join(missing)} (add --assign)")
    elif args.random_assign:
        env = random_assignment(names, random.Random(args.seed))
    else:
        raise CliError("provide --assign for every variable or --random-assign")
    return tree, env


def cmd_sieve(args) -> int:
    tree, env = _expr_and_env(args)
    functions = function_family(tree, env)
    distances = sieve(functions)
    if args.assign:
        # single explicit assignment: the verdict is this assignment's zero test
        witness_k = next((k for k in range(1, 16) if not distances[k].is_zero()), None)
        invariant = witness_k is None
        trials_run = 1
        witness = (
            None
            if invariant
            else {"assignment": {k: _coeff_list(v) for k, v in env.items()}, "index": witness_k,
                  "distance": _coeff_list(distances[witness_k])}
        )
    else:
        verdict = is_invariant(tree, trials=args.trials, seed=args.seed)
        invariant = verdict.invariant
        trials_run = verdict.trials_run
        witness = None
        if verdict.witness is not None:
            w = verdict.witness
            witness = {
                "assignment": {k: _coeff_list(v) for k, v in w.assignment.items()},
                "index": w.index,
                "distance": _coeff_list(w.distance),
            }
    mean = 0.25 * distances[0]
    if args.format == "json":
        _print_json(
            {
                "schema": SCHEMA_VERSION,
                "expr": to_text(tree),
                "assignment": {k: _coeff_list(v) for k, v in env.items()},
                "functions": [_coeff_list(f) for f in functions],
                "distances": [_coeff_list(g) for g in distances],
                "mean_function_value": _coeff_list(mean),
                "invariant": invariant,
                "trials_run": trials_run,
                "witness": witness,
            }
        )
        return 0
    print(f"expr: {to_text(tree)}")
    for name in sorted(env):
        print(f"  {name} = {_fmt_coeffs(env[name])}")
    print("functions f[N]:")
    for n, f in enumerate(functions):
        print(f"  f[{n:>2}] = {_fmt_coeffs(f)}")
    print("distances g[k]:")
    for k, g in enumerate(distances):
        print(f"  g[{k:>2}] = {_fmt_coeffs(g)}")
    print(f"mean function value g[0]/4 = {_fmt_coeffs(mean)}")
    if invariant:
        scope = "for this assignment" if args.assign else f"(no counterexample in {trials_run} trials)"
        print(f"verdict: invariant {scope}")
    else:
        scope = "" if args.assign else f" (trial {trials_run} of {args.trials})"
        print(f"verdict: not invariant{scope}; witness g[{witness['index']}] = "
              + "(" + ", ".join(f"{c:g}" for c in witness["distance"]) + ") at")
        for name, coeffs in sorted(witness["assignment"].items()):
            print(f"  {name} = (" + ", ".join(f"{c:g}" for c in coeffs) + ")")
    return 0


def cmd_derive(args) -> int:
    u = _parse_octonion(args.u)
    v = _parse_octonion(args.v)
    tree, env = _expr_and_env(args)
    if args.algebra is not None:
        ns = [args.algebra]
    else:
        ns = list(range(16))
    outputs = [derive(u, v, evaluate(tree, env, n), n) for n in ns]
    all_equal = all(o == outputs[0] for o in outputs) if len(ns) == 16 else None
    equal_set = (
        sorted(n for n, o in zip(ns, outputs) if o == outputs[0]) if len(ns) == 16 else None
    )
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "u": _coeff_list(u),
            "v": _coeff_list(v),
            "expr": to_text(tree),
            "assignment": {k: _coeff_list(x) for k, x in env.items()},
            "algebras": ns,
            "outputs": [_coeff_list(o) for o in outputs],
        }
        if all_equal is not None:
            payload["all_equal"] = all_equal
            payload["equal_set"] = equal_set
        _print_json(payload)
        return 0
    print(f"derivation D(u, v; {to_text(tree)})")
    print(f"  u = {_fmt_coeffs(u)}")
    print(f"  v = {_fmt_coeffs(v)}")
    for name in sorted(env):
        print(f"  {name} = {_fmt_coeffs(env[name])}")
    for n, o in zip(ns, outputs):
        print(f"  D[{n:>2}] = {_fmt_coeffs(o)}")
    if all_equal is not None:
        if all_equal:
            print("verdict: identical across all 16 algebras")
        else:
            print(f"verdict: varies across algebras; matches algebra {ns[0]} on {equal_set}")
    return 0


def cmd_verify(args) -> int:
    results = run_checks(quick=args.quick)
    passed = sum(r.passed for r in results)
    total = len(results)
    if args.format == "json":
        _print_json(
            {
                "schema": SCHEMA_VERSION,
                "quick": args.quick,
                "checks": [asdict(r) for r in results],
                "passed": passed,
                "total": total,
            }
        )
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  {r.detail}")
        print(f"{passed}/{total} checks passed" + (" (quick mode)" if args.quick else ""))
    return 0 if passed == total else 1


def _algebra_arg(value: str) -> int:
    n = int(value)
    if not 0 <= n <= 15:
        raise argparse.ArgumentTypeError("algebra id must be in 0..15")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octsieve",
        description="the 16 equivalent octonion multiplication rules, their variance sieve, and derivation checks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="print the 8x8 signed multiplication table of one algebra")
    p.add_argument("--algebra", type=_algebra_arg, required=True, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("triplets", help="print the oriented triplets and parity word of one algebra")
    p.add_argument("--algebra", type=_algebra_arg, required=True, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_triplets)

    p = sub.add_parser("orbit", help="print all 16 (algebra, generator word, parity word) rows")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("sieve", help="evaluate an expression under all 16 rules and sieve it")
    p.add_argument("--expr", required=True)
    p.add_argument("--assign", action="append", default=[], metavar="NAME=V0,...,V7",
                   help="bind a variable to 8 comma-separated reals (repeatable)")
    p.add_argument("--random-assign", action="store_true",
                   help="draw integer coefficients in -9..9 from --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("derive", help="apply the inner derivation D(u, v; expr) per algebra")
    p.add_argument("--u", required=True, metavar="OCT", help="iK shorthand or 8 reals")
    p.add_argument("--v", required=True, metavar="OCT")
    p.add_argument("--expr", required=True)
    p.add_argument("--assign", action="append", default=[], metavar="NAME=V0,...,V7")
    p.add_argument("--random-assign", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algebra", type=_algebra_arg, default=None, metavar="N",
                   help="one algebra (default: all 16)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--quick", action="store_true", help="reduced trial counts")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ExprSyntaxError, UnboundVariableError, ValueError, ArithmeticError) as exc:
        print(f"octsieve: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
