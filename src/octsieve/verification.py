"""Self-contained verification checks behind the `verify` CLI command.

Every check is exact: integer inputs keep all arithmetic exact, so each
criterion asserts equality, never closeness.  A check returns
``(passed, detail)``; :func:`run_checks` names and times it from its
``ALL_CHECKS`` entry.  The sampled checks run at fixed trial counts and
seeds.

Two identities are proved, not sampled, and the derivation ranks are
exact.  The kernel ``_mul`` is bilinear code, each output a sum of
+-s_t a_i b_j.  So the Leibniz residual D(ab) - D(a)b - aD(b) is linear
in each of u, v, a and b, and vanishes under rule 0 iff it vanishes on
the 8^4 basis quadruples;
|ab|^2 - |a|^2 |b|^2 is a quadratic form in a and in b, fixed by its
values at e_i and e_i + e_j, so 36 x 36 pairs decide it under rule 0.
Both proofs read their products off the kernel's 64 basis products
e_i e_j: a product with a basis factor, or of sums of basis units, is a
sum over nonzero coefficients of those products, the same exact numbers
as the kernel on those factors.  The eight D(e_c) come from the
package's own D code (``derivations._regrouped``), and D(e_a e_b) is
read off them by the linearity of D.  Rule n is rule 0 in the basis
phi_n: e_i -> chi(kappa_i, n) e_i, which :func:`_phi_failure` checks on
the kernel itself (64 basis pairs per rule, both sides bilinear); phi_n
is a sign flip per unit, so it carries each identity to all 16 rules,
and it turns rule 0's matrix of D(e_u, e_v; .) into rule n's by a sign
per row, column and generator, which keeps every rank.

Each check's route.  ``table-fidelity``, ``row-generators`` and
``flip-signatures`` compare the rule tables, sign matrix and generator
flips with frozen reference data, and ``identify-roundtrip`` reads each
rule's table back to its id.  ``norm-multiplicativity`` and ``leibniz``
are the proofs above, on the basis products under rule 0, and
``derivation-ranks`` ranks rule 0's matrices with
``derivations.derivation_span_rank``: the 21 pairs u < v, then each
triplet's three pairs restricted to its indices.
``hadamard-involution`` and ``xor-equivariance`` run the public
:func:`sieve` and :func:`unsieve` on sampled families, and
``sieve-invariance`` the refuter :func:`is_invariant`.  The two
cross-rule derivation checks run all-rules passes (``sieve._all_rules``)
on basis triples, where the per-rule route would run 16 rules of several
kernel calls each.  ``antiassociative-closed-form`` evaluates the
residual D + 2(uv)a on the 168 antiassociative triples, the zero tuple
exactly when D == -2(uv)a under all 16 rules (a failure names the first
rule where it is not).  ``equality-criterion`` evaluates D on the 343
unit triples, one tuple exactly when all 16 rules agree (a failure
prints the equal set of ``cross_algebra_equal``); where they disagree,
the spectrum must have one key k > 0, the XOR of two triplet masks.  The
test suite keeps the per-rule routes as independent cross-checks.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from itertools import combinations, product
from operator import mul
from time import perf_counter

from . import algebra, derivations
from .algebra import _KEYS, _SIGNS, Octonion, _character, _mul, _Record
from .sieve import _ZERO, _all_rules, _per_rule, _random_ints, is_invariant, sieve, sign_entry, sign_matrix, unsieve

__all__ = ["CheckResult", "ALL_CHECKS", "run_checks"]


class CheckResult(_Record):
    """One check's outcome; ``elapsed_s`` is its wall time, set by :func:`run_checks`."""

    __slots__ = __match_args__ = ("name", "passed", "detail", "elapsed_s")

    def __init__(self, name: str, passed: bool, detail: str, elapsed_s: float = 0.0):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "elapsed_s", elapsed_s)


Outcome = tuple[bool, str]

# Frozen reference data: the triplets of rule 0 (and the quaternionic lines
# they span), the parity words of the eight left-handed rules, and the
# sign-matrix row generators.
_REFERENCE_TRIPLETS = ((1, 2, 3), (7, 6, 1), (5, 7, 2), (6, 5, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7))
_LINES = frozenset(frozenset(t) for t in _REFERENCE_TRIPLETS)
_LEFT_PARITY_WORDS = (
    "+++++++",
    "++--+--",
    "+-+--+-",
    "+--+--+",
    "----+++",
    "--+++--",
    "-+-+-+-",
    "-++---+",
)
_T0_FLIPS = (0, 0, 0, 0, 1, 1, 1)
_ROW_GENERATORS = {8: "++++++++--------", 4: "++++----++++----", 2: "++--++--++--++--", 1: "+-+-+-+-+-+-+-+-"}
# The XORs of two distinct triplet masks: the one key k > 0 of D's spectrum
# on each unit triple that is not quaternionic.
_DISAGREEMENT_KEYS = frozenset({1, 2, 3, 12, 13, 14, 15})
_SIGNATURES = (
    (0, 1, 0, 0),
    (0, 1, 1, 0),
    (0, 1, 0, 1),
    (0, 1, 1, 1),
    (1, 0, 1, 0),
    (1, 0, 0, 1),
    (1, 0, 1, 1),
)


def _rand_octonion(rng: random.Random, bound: int = 9) -> Octonion:
    return Octonion(_random_ints(rng, bound))


_BASIS = tuple(Octonion.unit(k).coeffs for k in range(8))
_PHI_DETAIL = "checked on 64 basis pairs x 16 rules"


def _support(x: tuple) -> list:
    """The nonzero coefficients of ``x`` as ``(c, x_c)`` pairs."""
    return [(c, y) for c, y in enumerate(x) if y]


def _basis_terms(s: tuple) -> list:
    """The 64 products e_i e_j under the kernel with characters ``s``, entry
    [i][j], each as its nonzero coefficients."""
    return [[_support(_mul(x, y, s)) for y in _BASIS] for x in _BASIS]


def _phi_failure() -> str | None:
    """None if the kernel under every rule n is rule 0 in the basis phi_n:
    e_i -> chi(kappa_i, n) e_i, i.e. _mul(phi_n x, phi_n y, s_n) ==
    phi_n _mul(x, y, s_0).  Both sides are bilinear, so the 64 basis pairs
    per rule prove it for all x and y, and phi_n (a sign flip per unit, its
    own inverse, norm-preserving) carries an identity proved under rule 0
    to rule n."""
    products = [[_mul(x, y, _SIGNS[0]) for y in _BASIS] for x in _BASIS]
    for n, s in enumerate(_SIGNS):
        chi = tuple(_character(key, n) for key in _KEYS)
        phi = [tuple(map(mul, chi, x)) for x in _BASIS]
        for i, j in product(range(8), repeat=2):
            if _mul(phi[i], phi[j], s) != tuple(map(mul, chi, products[i][j])):
                return f"rule {n} is not rule 0 in the basis phi_{n}: e{i} e{j} differs"
    return None


def check_table_fidelity() -> Outcome:
    triplets, word = algebra.triplet_set(0)
    if triplets != _REFERENCE_TRIPLETS or word != "+++++++":
        return False, f"rule 0 mismatch: {triplets} {word}"
    for n in range(8):
        if algebra.parity_word(n) != _LEFT_PARITY_WORDS[n]:
            return False, f"rule {n}: {algebra.parity_word(n)} != {_LEFT_PARITY_WORDS[n]}"
    for n in range(8):
        low = algebra.flip_vector(n)
        high = algebra.flip_vector(n + 8)
        if tuple(a ^ b for a, b in zip(low, high)) != _T0_FLIPS:
            return False, f"rules {n}/{n + 8} do not differ by T0"
    return True, "rule 0 triplets, words 0..7, T0 pairing all exact"


def check_norm_multiplicativity() -> Outcome:
    # Q(a, b) = |ab|^2 - |a|^2 |b|^2 is a quadratic form in a and in b, and a
    # quadratic form is fixed by its values at e_i and e_i + e_j (i < j).
    # Each such vector is given by its support, so ab is a sum of at most 4
    # basis products and |a|^2 is the size of a's support
    if (failure := _phi_failure()) is not None:
        return False, failure
    products = _basis_terms(_SIGNS[0])
    supports = [(i,) for i in range(8)] + list(combinations(range(8), 2))
    for a, b in product(supports, repeat=2):
        ab = [0] * 8
        for i, j in product(a, b):
            for k, x in products[i][j]:
                ab[k] += x
        if sum(map(mul, ab, ab)) != len(a) * len(b):
            a, b = ([int(k in x) for k in range(8)] for x in (a, b))
            return False, f"rule 0, pair {a}, {b}: |ab|^2 != |a|^2 |b|^2"
    return True, (
        f"|ab|^2 == |a|^2 |b|^2 proved: exact on all {len(supports) ** 2} pairs of e_i, e_i + e_j "
        f"under rule 0, carried to all 16 rules by phi_n ({_PHI_DETAIL})"
    )


def check_hadamard_involution() -> Outcome:
    trials = 100
    rng = random.Random(21)
    for t in range(trials):
        fam = tuple(_rand_octonion(rng, 99) for _ in range(16))
        if unsieve(sieve(fam)) != fam:
            return False, f"family {t} did not round-trip"
    return True, f"unsieve(sieve(x)) == x exactly on {trials} integer families"


def check_row_generators() -> Outcome:
    for k in range(16):
        expected = [1] * 16
        for bit, word in _ROW_GENERATORS.items():
            if k & bit:
                expected = [a if c == "+" else -a for a, c in zip(expected, word)]
        for j in range(16):
            if sign_entry(j, k) != expected[j]:
                return False, f"row {k} entry {j} mismatch"
    return True, "all 16 rows rebuilt from generators; 256 entries symmetric"


def check_sieve_invariance() -> Outcome:
    trials = 64
    for text in ("a+b", "a*a", "a*b+b*a"):
        verdict = is_invariant(text, trials=trials, seed=22)
        if not verdict.invariant:
            return False, f"{text!r} refuted at k={verdict.witness.index}"
    verdict = is_invariant("a*b", trials=trials, seed=22)
    if verdict.invariant:
        return False, "'a*b' should have a nonzero distance"
    w = verdict.witness
    return True, (
        f"a+b, a*a, a*b+b*a invariant over {trials} trials; a*b witness: "
        f"g[{w.index}] = {list(w.distance.coeffs)} at "
        + ", ".join(f"{k}={list(v.coeffs)}" for k, v in sorted(w.assignment.items()))
    )


def check_xor_equivariance() -> Outcome:
    trials = 20
    rng = random.Random(23)
    matrix = sign_matrix()
    for t in range(trials):
        fam = tuple(_rand_octonion(rng) for _ in range(16))
        base = [g.coeffs for g in sieve(fam)]
        signed = {1: base, -1: [tuple([-c for c in g]) for g in base]}
        for m, signs in enumerate(matrix):
            permuted = tuple(fam[j ^ m] for j in range(16))
            shifted = sieve(permuted)
            for k, sign in enumerate(signs):
                if shifted[k].coeffs != signed[sign][k]:
                    return False, f"family {t}, mask {m}, distance {k} mismatch"
    return True, f"all 16 masks on {trials} families: g'[k] == b[m][k] g[k]"


def _leibniz_counterexample(s: tuple[int, ...]) -> tuple[int, int, int, int] | None:
    """The first basis quadruple (u, v, a, b) on which D(ab) - D(a)b - aD(b)
    is nonzero under the kernel with characters ``s``, D = D(e_u, e_v; .);
    None if there is none.  The residual is linear in each of u, v, a and b,
    so None proves it is 0 everywhere under those characters.  D is linear
    too, so D(e_a e_b) is read off the eight D(e_c) as sum_c p_c D(e_c), p
    the product e_a e_b; the kernel is bilinear, so D(e_a) e_b is
    sum_c D(e_a)_c e_c e_b and e_a D(e_b) is sum_c D(e_b)_c e_a e_c.  All
    three are read off the 64 basis products as sums over their nonzero
    coefficients: the same exact numbers as the kernel on those factors."""
    products = _basis_terms(s)
    for u, v in product(range(8), repeat=2):
        d = derivations._regrouped(_BASIS[u], _BASIS[v], s)
        ds = [_support(d(x)) for x in _BASIS]
        for a, b in product(range(8), repeat=2):
            residual = [0] * 8
            for c, p in products[a][b]:  # + D(e_a e_b)
                for k, x in ds[c]:
                    residual[k] += p * x
            for c, x in ds[a]:  # - D(e_a) e_b
                for k, y in products[c][b]:
                    residual[k] -= x * y
            for c, y in ds[b]:  # - e_a D(e_b)
                for k, x in products[a][c]:
                    residual[k] -= x * y
            if any(residual):
                return u, v, a, b
    return None


def check_leibniz() -> Outcome:
    if (failure := _phi_failure()) is not None:
        return False, failure
    if (quadruple := _leibniz_counterexample(_SIGNS[0])) is not None:
        return False, "rule 0, basis quadruple (e%d, e%d, e%d, e%d): nonzero residual" % quadruple
    return True, (
        "D(ab) == D(a)b + aD(b) proved: residual exactly 0 on all 4096 basis quadruples "
        f"under rule 0, carried to all 16 rules by phi_n ({_PHI_DETAIL})"
    )


def _units(triple: tuple[int, int, int]) -> dict[str, tuple]:
    """The all-rules environment u, v, x = e_u, e_v, e_a of a basis triple."""
    return dict(zip("uvx", (_BASIS[k] for k in triple)))


def check_antiassoc_closed_form() -> Outcome:
    # one all-rules pass per triple decides its 16 cases: the residual
    # D + 2(uv)a is the zero tuple exactly when it is 0 under every rule
    triples = [t for t in product(range(1, 8), repeat=3) if len(set(t)) == 3 and frozenset(t) not in _LINES]
    for triple in triples:
        residual = _all_rules(derivations._ANTIASSOC_RESIDUAL, _units(triple))
        if residual != _ZERO:
            n = next(n for n, r in enumerate(_per_rule(residual)) if any(r))
            return False, f"rule {n}, triple {triple}"
    return True, f"D == -2(uv)a in all {16 * len(triples)} ordered cases"


def check_flip_signatures() -> Outcome:
    patterns = [algebra.GENERATOR_FLIPS[bit] for bit in (8, 4, 2, 1)]
    signatures = tuple(tuple(p[t] for p in patterns) for t in range(7))
    if signatures != _SIGNATURES:
        return False, f"signatures {signatures}"
    return True, "7 per-triplet signatures pairwise distinct"


def check_derivation_ranks() -> Outcome:
    # phi_n turns rule 0's matrices into rule n's by a sign per row, column
    # and generator, which keeps every rank: rule 0's ranks are every rule's
    if (failure := _phi_failure()) is not None:
        return False, failure
    rank = derivations.derivation_span_rank(list(combinations(range(1, 8), 2)), 0)
    if rank != 14:
        return False, f"rule 0: full span rank {rank} != 14"
    for triplet in _REFERENCE_TRIPLETS:
        idxs = sorted(triplet)
        rank = derivations.derivation_span_rank(list(combinations(idxs, 2)), 0, restrict_to=idxs)
        if rank != 3:
            return False, f"rule 0, triplet {idxs}: rank {rank} != 3"
    return True, "full span rank 14 and triplet-restricted rank 3 for 16 rules"


def check_equality_criterion() -> Outcome:
    # all 16 rules agree exactly when D's all-rules value is one tuple, no
    # key k > 0: the sieve's invariance test; the equal set only on failure.
    # Where they disagree, the spectrum has one key k > 0, the XOR of two
    # triplet masks, so the rules that agree with rule 0 are ker chi_k
    for triple in product(range(1, 8), repeat=3):
        value = _all_rules(derivations._DERIVE, _units(triple))
        agree = type(value) is tuple
        quaternionic = len(set(triple)) <= 2 or frozenset(triple) in _LINES
        if agree != quaternionic:
            got = derivations.cross_algebra_equal(*(Octonion.unit(k) for k in triple))
            return False, f"triple {triple}: equal set {sorted(got)}"
        if not agree:
            keys = value.keys() - {0}
            if len(keys) != 1 or not keys <= _DISAGREEMENT_KEYS:
                allowed = sorted(_DISAGREEMENT_KEYS)
                return False, f"triple {triple}: spectrum keys {sorted(value)}, not one k > 0 in {allowed}"
    return True, "all 343 ordered imaginary triples match the iff condition"


def check_identify_roundtrip() -> Outcome:
    for n in range(16):
        if algebra.identify_algebra(algebra.mul_table(n)) != n:
            return False, f"rule {n} did not round-trip"
    mutated = [list(row) for row in algebra.mul_table(0)]
    mutated[1][2] = (1, 4)  # i1 i2 = i4 is not a Fano line
    mutated[2][1] = (-1, 4)
    try:
        algebra.identify_algebra(tuple(tuple(row) for row in mutated))
    except algebra.NotEquivalentAlgebraError:
        return True, "16 round-trips; mutated table rejected"
    return False, "mutated table was not rejected"


ALL_CHECKS: tuple[tuple[str, Callable[[], Outcome]], ...] = (
    ("table-fidelity", check_table_fidelity),
    ("norm-multiplicativity", check_norm_multiplicativity),
    ("hadamard-involution", check_hadamard_involution),
    ("row-generators", check_row_generators),
    ("sieve-invariance", check_sieve_invariance),
    ("xor-equivariance", check_xor_equivariance),
    ("leibniz", check_leibniz),
    ("antiassociative-closed-form", check_antiassoc_closed_form),
    ("flip-signatures", check_flip_signatures),
    ("derivation-ranks", check_derivation_ranks),
    ("equality-criterion", check_equality_criterion),
    ("identify-roundtrip", check_identify_roundtrip),
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run every check, always all of them, in declaration order; each
    result carries the check's name and its wall time.
    ``quick`` is ignored: the benchmark harness still passes ``quick=False``."""
    results = []
    for name, fn in ALL_CHECKS:
        start = perf_counter()
        passed, detail = fn()
        results.append(CheckResult(name, passed, detail, perf_counter() - start))
    return results
