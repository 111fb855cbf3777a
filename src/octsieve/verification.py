"""Self-contained verification checks behind the `verify` CLI command.

Every check is exact: integer inputs keep all arithmetic exact, so each
criterion asserts equality, never closeness.  A check returns
``(passed, detail)``; :func:`run_checks` names and times it from its
``ALL_CHECKS`` entry.  ``quick`` trims trial counts for a fast smoke run;
the full counts are the contract.

Two identities are proved, not sampled, so ``quick`` runs the same
proofs.  The kernel ``_mul`` is bilinear code, each output a sum of
+-s_t a_i b_j.  So the Leibniz residual D(ab) - D(a)b - aD(b) is linear
in each of u, v, a and b, and vanishes under rule 0 iff it vanishes on
the 8^4 basis quadruples, where D(e_a e_b) is read off the eight D(e_c)
by the linearity of D; |ab|^2 - |a|^2 |b|^2 is a quadratic form in a
and in b, fixed by its values at e_i and e_i + e_j, so 36 x 36 pairs
decide it under rule 0.  Rule n is rule 0 in the basis phi_n: e_i ->
chi(kappa_i, n) e_i, which :func:`_phi_failure` checks on the kernel
itself (64 basis pairs per rule, both sides bilinear); phi_n is a sign
flip per unit, so it carries each identity to all 16 rules.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from itertools import combinations, product
from operator import add, mul
from time import perf_counter

from . import algebra, derivations
from .algebra import _KEYS, _SIGNS, Octonion, _character, _mul, _Record
from .sieve import _ZERO, _random_ints, is_invariant, sieve, sign_entry, sign_matrix, unsieve

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
_ROW_GENERATORS = {
    8: (1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1),
    4: (1, 1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1),
    2: (1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1),
    1: (1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1),
}
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


def check_table_fidelity(quick: bool = False) -> Outcome:
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


def check_norm_multiplicativity(quick: bool = False) -> Outcome:
    # Q(a, b) = |ab|^2 - |a|^2 |b|^2 is a quadratic form in a and in b, and a
    # quadratic form is fixed by its values at e_i and e_i + e_j (i < j)
    if (failure := _phi_failure()) is not None:
        return False, failure
    vectors = [Octonion.unit(k) for k in range(8)]
    vectors += [x + y for i, x in enumerate(vectors) for y in vectors[i + 1:]]
    for a, b in product(vectors, repeat=2):
        if algebra.norm_sq(algebra.multiply(a, b, 0)) != algebra.norm_sq(a) * algebra.norm_sq(b):
            return False, f"rule 0, pair {list(a.coeffs)}, {list(b.coeffs)}: |ab|^2 != |a|^2 |b|^2"
    return True, (
        f"|ab|^2 == |a|^2 |b|^2 proved: exact on all {len(vectors) ** 2} pairs of e_i, e_i + e_j "
        f"under rule 0, carried to all 16 rules by phi_n ({_PHI_DETAIL})"
    )


def check_hadamard_involution(quick: bool = False) -> Outcome:
    trials = 20 if quick else 100
    rng = random.Random(21)
    for t in range(trials):
        fam = tuple(_rand_octonion(rng, 99) for _ in range(16))
        if unsieve(sieve(fam)) != fam:
            return False, f"family {t} did not round-trip"
    return True, f"unsieve(sieve(x)) == x exactly on {trials} integer families"


def check_row_generators(quick: bool = False) -> Outcome:
    for k in range(16):
        expected = [1] * 16
        for bit, vec in _ROW_GENERATORS.items():
            if k & bit:
                expected = [a * b for a, b in zip(expected, vec)]
        for j in range(16):
            if sign_entry(j, k) != expected[j]:
                return False, f"row {k} entry {j} mismatch"
    for j in range(16):
        for k in range(16):
            if sign_entry(j, k) != sign_entry(k, j):
                return False, f"asymmetric at ({j}, {k})"
    return True, "all 16 rows rebuilt from generators; 256 entries symmetric"


def check_sieve_invariance(quick: bool = False) -> Outcome:
    trials = 8 if quick else 64
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


def check_xor_equivariance(quick: bool = False) -> Outcome:
    trials = 4 if quick else 20
    rng = random.Random(23)
    matrix = sign_matrix()
    for t in range(trials):
        fam = tuple(_rand_octonion(rng) for _ in range(16))
        base = sieve(fam)
        for m, signs in enumerate(matrix):
            permuted = tuple(fam[j ^ m] for j in range(16))
            shifted = sieve(permuted)
            for k, sign in enumerate(signs):
                if shifted[k].coeffs != tuple([sign * c for c in base[k].coeffs]):
                    return False, f"family {t}, mask {m}, distance {k} mismatch"
    return True, f"all 16 masks on {trials} families: g'[k] == b[m][k] g[k]"


def _leibniz_counterexample(s: tuple[int, ...]) -> tuple[int, int, int, int] | None:
    """The first basis quadruple (u, v, a, b) on which D(ab) - D(a)b - aD(b)
    is nonzero under the kernel with characters ``s``, D = D(e_u, e_v; .);
    None if there is none.  The residual is linear in each of u, v, a and b,
    so None proves it is 0 everywhere under those characters.  D is linear
    too, so D(e_a e_b) is read off the eight D(e_c) as sum_c p_c D(e_c), p
    the product e_a e_b: the same exact numbers as D applied to p."""
    terms = [[[(c, pc) for c, pc in enumerate(_mul(x, y, s)) if pc] for y in _BASIS] for x in _BASIS]
    for u, v in product(range(8), repeat=2):
        d = derivations._regrouped(_BASIS[u], _BASIS[v], s)
        ds = [d(x) for x in _BASIS]
        for a, b in product(range(8), repeat=2):
            d_ab = _ZERO
            for c, pc in terms[a][b]:
                d_ab = tuple([y + pc * z for y, z in zip(d_ab, ds[c])])
            if d_ab != tuple(map(add, _mul(ds[a], _BASIS[b], s), _mul(_BASIS[a], ds[b], s))):
                return u, v, a, b
    return None


def check_leibniz(quick: bool = False) -> Outcome:
    if (failure := _phi_failure()) is not None:
        return False, failure
    if (quadruple := _leibniz_counterexample(_SIGNS[0])) is not None:
        return False, "rule 0, basis quadruple (e%d, e%d, e%d, e%d): nonzero residual" % quadruple
    return True, (
        "D(ab) == D(a)b + aD(b) proved: residual exactly 0 on all 4096 basis quadruples "
        f"under rule 0, carried to all 16 rules by phi_n ({_PHI_DETAIL})"
    )


def check_antiassoc_closed_form(quick: bool = False) -> Outcome:
    triples = [t for t in product(range(1, 8), repeat=3) if len(set(t)) == 3 and frozenset(t) not in _LINES]
    for n in range(16):
        for triple in triples:
            if not derivations.antiassoc_closed_form(*triple, n).equal:
                return False, f"rule {n}, triple {triple}"
    return True, f"D == -2(uv)a in all {16 * len(triples)} ordered cases"


def check_flip_signatures(quick: bool = False) -> Outcome:
    patterns = [algebra.GENERATOR_FLIPS[bit] for bit in (8, 4, 2, 1)]
    signatures = tuple(tuple(p[t] for p in patterns) for t in range(7))
    if signatures != _SIGNATURES:
        return False, f"signatures {signatures}"
    if len(set(signatures)) != 7:
        return False, "signatures not pairwise distinct"
    return True, "7 per-triplet signatures pairwise distinct"


def check_derivation_ranks(quick: bool = False) -> Outcome:
    # each of the 21 pairs lies on one triplet: build its matrix once, and
    # rank the flattened matrices and their restrictions to each triplet
    rules = range(4) if quick else range(16)
    for n in rules:
        matrices = {pair: derivations.derivation_matrix(*pair, n) for pair in combinations(range(1, 8), 2)}
        rank = derivations.integer_rank([sum(m, ()) for m in matrices.values()])
        if rank != 14:
            return False, f"rule {n}: full span rank {rank} != 14"
        for triplet in _REFERENCE_TRIPLETS:
            idxs = sorted(triplet)
            rows = [[matrices[pair][i - 1][j - 1] for i in idxs for j in idxs] for pair in combinations(idxs, 2)]
            rank = derivations.integer_rank(rows)
            if rank != 3:
                return False, f"rule {n}, triplet {idxs}: rank {rank} != 3"
    return True, f"full span rank 14 and triplet-restricted rank 3 for {len(list(rules))} rules"


def check_equality_criterion(quick: bool = False) -> Outcome:
    full = frozenset(range(16))
    for u, v, a in product(range(1, 8), repeat=3):
        got = derivations.cross_algebra_equal(
            Octonion.unit(u), Octonion.unit(v), Octonion.unit(a)
        )
        idxs = {u, v, a}
        quaternionic = len(idxs) <= 2 or frozenset(idxs) in _LINES
        if (got == full) != quaternionic:
            return False, f"triple {(u, v, a)}: equal set {sorted(got)}"
    return True, "all 343 ordered imaginary triples match the iff condition"


def check_identify_roundtrip(quick: bool = False) -> Outcome:
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


ALL_CHECKS: tuple[tuple[str, Callable[[bool], Outcome]], ...] = (
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
    result carries the check's name and its wall time."""
    results = []
    for name, fn in ALL_CHECKS:
        start = perf_counter()
        passed, detail = fn(quick)
        results.append(CheckResult(name, passed, detail, perf_counter() - start))
    return results
