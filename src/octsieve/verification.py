"""Self-contained verification checks behind the `verify` CLI command.

Every check is exact: integer inputs keep all arithmetic exact, so each
criterion asserts equality, never closeness.  A check returns
``(passed, detail)``; :func:`run_checks` names and times it from its
``ALL_CHECKS`` entry; a check that raises fails, with the exception as
its detail.  The sampled checks run at fixed trial counts and seeds.

Two octonion identities and two facts of the Walsh kernel are proved,
not sampled, and the derivation ranks are exact.  The kernel ``_mul`` is
bilinear code, each output a sum of +-s_t a_i b_j.  So the Leibniz
residual D(ab) - D(a)b - aD(b) is linear in each of u, v, a and b, and
vanishes under rule 0 iff it vanishes on the 8^4 basis quadruples;
|ab|^2 - |a|^2 |b|^2 is a quadratic form in a and in b, fixed by its
values at e_i and e_i + e_j, so 36 x 36 pairs decide it under rule 0.
Both proofs read their products off the kernel's 64 basis products
e_i e_j, the same exact numbers as the kernel on sums of basis units.
The eight D(e_c) come from the package's own D code
(``derivations._regrouped``), and D(e_a e_b) is read off them by the
linearity of D.  Rule n is rule 0 in the basis phi_n:
e_i -> chi(kappa_i, n) e_i.  ``table-fidelity`` proves that once per
run, on the kernel (:func:`_phi_failure`: 64 basis pairs per rule, both
sides bilinear), and the five rule-0 checks cite it: phi_n, a sign flip
per unit, carries each identity to all 16 rules and turns rule 0's
matrix of D(e_u, e_v; .) into rule n's by a sign per row, column and
generator, which keeps every rank.  Under rule n a value of basis units
whose keys XOR to K is rule 0's with component c at spectrum key
K ^ kappa_c (:func:`_phi_spectrum`), so the two cross-rule derivation
checks read all 16 rules off rule 0, and ``table-fidelity`` proves the
all-rules product (``_mul_all``, ``_add_product``; bilinear, the
Cauchy-Schwarz shortcut being exact) is that spectrum on the 64 basis
pairs.

The Walsh kernel ``sieve._walsh`` only adds and subtracts, so run once
on 16 formal symbols x_j (``_Form``, linear forms with no product) it
gives the transform's exact matrix over any commutative ring.
``xor-equivariance`` proves that the matrix is b[j][k] and that
permuting the input by j -> j ^ m multiplies output k by b[m][k];
``hadamard-involution`` proves that the kernel on its own outputs gives
16 x_k.  The public :func:`sieve` and :func:`unsieve` divide the sums by
4 in floats, exact only below 2^53, so that route is sampled.

Each check's route.  ``table-fidelity``, ``row-generators`` and
``flip-signatures`` compare the rule tables, sign matrix and generator
flips with frozen reference data, and ``table-fidelity`` then proves
phi_n on both products; ``identify-roundtrip`` reads each rule's table
back to its id.  ``norm-multiplicativity`` and the two kernel proofs
are above; ``hadamard-involution`` and ``xor-equivariance`` then sample
the public :func:`sieve`, and ``sieve-invariance`` runs
:func:`is_invariant`.  Four checks read one table of rule 0's
D(e_u, e_v; e_a), 512 values of 64 ``derivations._regrouped`` maps
(:func:`_derivations`), built once per :func:`run_checks` call:
``leibniz``, above; ``derivation-ranks`` ranks the 21 matrices, u < v,
with ``derivations.integer_rank``, then each triplet's three restricted
to its indices; ``antiassociative-closed-form`` checks D == -2(uv)a on
the 168 antiassociative triples (a failure names rule 0);
``equality-criterion`` reads D's spectrum on the 343 unit triples: no
key k > 0 exactly when all 16 rules agree (a failure prints the rules
in ker chi_k for each key), else one key, the XOR of two triplet masks.
The test suite keeps the per-rule and all-rules routes as cross-checks.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import cache
from itertools import combinations, permutations, product
from operator import mul, xor
from time import perf_counter

from . import algebra, derivations
from .algebra import _KEYS, _SIGNS, Octonion, _add_product, _character, _mul, _mul_all, _Record
from .sieve import _butterfly, _pruned, _random_ints, _walsh, is_invariant, sieve, sign_entry, unsieve

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
_REFERENCE_TRIPLETS = tuple(tuple(map(int, word)) for word in "123 761 572 653 145 246 347".split())
_LINES = frozenset(frozenset(t) for t in _REFERENCE_TRIPLETS)
_LEFT_PARITY_WORDS = tuple("+++++++ ++--+-- +-+--+- +--+--+ ----+++ --+++-- -+-+-+- -++---+".split())
_T0_FLIPS = tuple(map(int, "0000111"))
_ROW_GENERATORS = {8: "++++++++--------", 4: "++++----++++----", 2: "++--++--++--++--", 1: "+-+-+-+-+-+-+-+-"}
# The XORs of two distinct triplet masks: the one key k > 0 of D's spectrum
# on each unit triple that is not quaternionic.
_DISAGREEMENT_KEYS = frozenset({1, 2, 3, 12, 13, 14, 15})
_SIGNATURES = tuple(tuple(map(int, word)) for word in "0100 0110 0101 0111 1010 1001 1011".split())


_BASIS = tuple(Octonion.unit(k).coeffs for k in range(8))


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


def _phi_spectrum(x: tuple, key: int) -> tuple | dict:
    """The all-rules value of ``x``, rule 0's value of basis units whose keys
    XOR to ``key``: by phi_n, x_c is chi(key ^ kappa_c, n) x_c under rule n."""
    rows = {}
    for c, y in _support(x):
        rows.setdefault(key ^ _KEYS[c], [0] * 8)[c] = y
    return _pruned(rows)


def check_table_fidelity() -> Outcome:
    triplets, word = algebra.triplet_set(0)
    if triplets != _REFERENCE_TRIPLETS or word != "+++++++":
        return False, f"rule 0 mismatch: {triplets} {word}"
    for n in range(8):
        if algebra.parity_word(n) != _LEFT_PARITY_WORDS[n]:
            return False, f"rule {n}: {algebra.parity_word(n)} != {_LEFT_PARITY_WORDS[n]}"
        if tuple(map(xor, algebra.flip_vector(n), algebra.flip_vector(n + 8))) != _T0_FLIPS:
            return False, f"rules {n}/{n + 8} do not differ by T0"
    if (failure := _phi_failure()) is not None:
        return False, failure
    # the all-rules product, bilinear like _mul, is phi_n of rule 0's on
    # the basis pairs, so everywhere
    for (i, x), (j, y) in product(enumerate(_BASIS), repeat=2):
        _add_product(rows := {}, 0, x, y)
        if not _mul_all(x, y) == _pruned(rows) == _phi_spectrum(_mul(x, y, _SIGNS[0]), _KEYS[i] ^ _KEYS[j]):
            return False, f"the all-rules product is not rule 0's in the basis phi_n: e{i} e{j} differs"
    return True, ("rule 0 triplets, words 0..7, T0 pairing all exact; "
                  "rule n is rule 0 in the basis phi_n, checked on 64 basis pairs x 16 rules, "
                  "and so is the all-rules product, on 64 basis pairs")


def check_norm_multiplicativity() -> Outcome:
    # Q(a, b) = |ab|^2 - |a|^2 |b|^2 is a quadratic form in a and in b, and a
    # quadratic form is fixed by its values at e_i and e_i + e_j (i < j).
    # Each such vector is given by its support, so ab is a sum of at most 4
    # basis products and |a|^2 is the size of a's support
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
        "under rule 0, carried to all 16 rules by phi_n (proved by table-fidelity)"
    )


class _Form(dict):
    """A formal linear form sum_j c_j x_j as {j: c_j}, zero terms dropped,
    with a sum and a difference and no product.  Code that only adds and
    subtracts, run on the symbols {j: 1}, gives its exact matrix over any
    commutative ring; code that multiplies raises ``TypeError``."""

    __slots__ = ()

    def _plus(self, other: dict, sign: int) -> _Form:
        out = _Form(self)
        for j, c in other.items():
            if total := out.get(j, 0) + sign * c:
                out[j] = total
            else:
                del out[j]
        return out

    def __add__(self, other: dict) -> _Form:
        return self._plus(other, 1)

    def __sub__(self, other: dict) -> _Form:
        return self._plus(other, -1)


def _kernel_matrix() -> tuple:
    """The Walsh kernel's matrix: ``_walsh`` run once on the 16 symbols, its
    output k the form sum_j M[k][j] x_j."""
    return _walsh(*(_Form({j: 1}) for j in range(16)))


def check_hadamard_involution() -> Outcome:
    # proved: the kernel on its own 16 output forms gives 16 x_k.  Sampled:
    # the public float route, exact only while its sums stay below 2^53
    for k, form in enumerate(_walsh(*_kernel_matrix())):
        if form != {k: 16}:
            return False, f"kernel: _walsh(_walsh(x))[{k}] != 16 x_{k}"
    trials = 100
    rng = random.Random(21)
    for t in range(trials):
        ints = _random_ints(rng, 99, 128)
        fam = tuple(Octonion(ints[i:i + 8]) for i in range(0, 128, 8))
        if unsieve(sieve(fam)) != fam:
            return False, f"family {t} did not round-trip"
    return True, ("_walsh(_walsh(x)) == 16x proved on 16 formal symbols; "
                  f"unsieve(sieve(x)) == x exactly on {trials} sampled integer families")


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
    # proved: output k of the kernel is sum_j b[j][k] x_j, and the input
    # permuted by j -> j ^ m turns it into sum_j b[j][k] x_(j^m), which must
    # be chi(m, k) times it for all 16 masks (chi = +-1 scales the permuted
    # form here).  Sampled: the public sieve is _butterfly's sums / 4
    for k, row in enumerate(_kernel_matrix()):
        if row != {j: sign_entry(j, k) for j in range(16)}:
            return False, f"kernel: _walsh output {k} is not sum_j b[j][{k}] x_j"
        for m in range(16):
            chi = _character(m, k)
            if {j ^ m: chi * c for j, c in row.items()} != row:
                return False, f"kernel: mask {m} does not scale output {k} by b[{m}][{k}]"
    trials = 20
    rng = random.Random(23)
    for t in range(trials):
        fam = tuple(Octonion(_random_ints(rng, 9)) for _ in range(16))
        sums = _butterfly([f.coeffs for f in fam])
        if [g.coeffs for g in sieve(fam)] != [tuple(c / 4 for c in row) for row in sums]:
            return False, f"family {t}: sieve(x) != the kernel's sums / 4"
    return True, ("kernel proved on 16 formal symbols: matrix b, and g'[k] == b[m][k] g[k] for all 16 masks; "
                  f"sieve(x) == the kernel's sums / 4 exactly on {trials} sampled integer families")


def _derivations(s: tuple = _SIGNS[0]) -> list:
    """D(e_u, e_v; e_a) under the kernel with characters ``s`` at [u][v][a],
    from the package's own D code: 64 ``derivations._regrouped`` calls."""
    return [[list(map(derivations._regrouped(x, y, s), _BASIS)) for y in _BASIS] for x in _BASIS]


def _leibniz_counterexample(s: tuple[int, ...], table: list) -> tuple[int, int, int, int] | None:
    """The first basis quadruple (u, v, a, b) on which D(ab) - D(a)b - aD(b)
    is nonzero under the kernel with characters ``s``, D = D(e_u, e_v; .)
    and D(e_c) = ``table[u][v][c]``; None if there is none.  The residual
    is linear in each of u, v, a and b, so None proves it is 0 everywhere
    under those characters.  D is linear too, so D(e_a e_b) is read off the
    eight D(e_c) as sum_c p_c D(e_c), p the product e_a e_b; the kernel is
    bilinear, so D(e_a) e_b is sum_c D(e_a)_c e_c e_b and e_a D(e_b) is
    sum_c D(e_b)_c e_a e_c.  All three are read off the 64 basis products
    as sums over their nonzero coefficients: the same exact numbers as the
    kernel on those factors."""
    products = _basis_terms(s)
    for u, v in product(range(8), repeat=2):
        ds = list(map(_support, table[u][v]))
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


def check_leibniz(derived: Callable[[], list] = _derivations) -> Outcome:
    if (quadruple := _leibniz_counterexample(_SIGNS[0], derived())) is not None:
        return False, "rule 0, basis quadruple (e%d, e%d, e%d, e%d): nonzero residual" % quadruple
    return True, (
        "D(ab) == D(a)b + aD(b) proved: residual exactly 0 on all 4096 basis quadruples "
        "under rule 0, carried to all 16 rules by phi_n (proved by table-fidelity)"
    )


def check_antiassoc_closed_form(derived: Callable[[], list] = _derivations) -> Outcome:
    # under rule n the residual D + 2(uv)a is phi_n of rule 0's up to sign.
    # Distinct units u, v, a are on a line exactly when a == u ^ v
    s, table = _SIGNS[0], derived()
    triples = 0
    for u, v in permutations(range(1, 8), 2):
        uv = _mul(_BASIS[u], _BASIS[v], s)
        for a in range(1, 8):
            if a not in (u, v, u ^ v):
                triples += 1
                if table[u][v][a] != tuple([-2 * c for c in _mul(uv, _BASIS[a], s)]):
                    return False, f"rule 0, triple {(u, v, a)}"
    return True, (f"D == -2(uv)a proved: exact on all {triples} antiassociative triples under rule 0, "
                  f"carried to all {16 * triples} ordered cases by phi_n (proved by table-fidelity)")


def check_flip_signatures() -> Outcome:
    signatures = tuple(zip(*map(algebra.flip_vector, (8, 4, 2, 1))))
    if signatures != _SIGNATURES:
        return False, f"signatures {signatures}"
    return True, "7 per-triplet signatures pairwise distinct"


def check_derivation_ranks(derived: Callable[[], list] = _derivations) -> Outcome:
    # phi_n, proved by table-fidelity, turns rule 0's matrices into rule n's
    # by a sign per row, column and generator, which keeps every rank: rule
    # 0's ranks are every rule's.  Entry [i][a] of matrix (u, v) is
    # D(e_u, e_v; e_a)_i, and a triplet's three keep its indices alone
    table = derived()

    def rank(idxs):
        return derivations.integer_rank([[table[u][v][a][i] for i in idxs for a in idxs]
                                         for u, v in combinations(idxs, 2)])

    if (full := rank(range(1, 8))) != 14:
        return False, f"rule 0: full span rank {full} != 14"
    for idxs in map(sorted, _REFERENCE_TRIPLETS):
        if (r := rank(idxs)) != 3:
            return False, f"rule 0, triplet {idxs}: rank {r} != 3"
    return True, "full span rank 14 and triplet-restricted rank 3 for 16 rules"


def check_equality_criterion(derived: Callable[[], list] = _derivations) -> Outcome:
    # rule n agrees with rule 0 iff it is in ker chi_k for each key k of
    # D's spectrum; where not all do, it has one key k > 0, the XOR of two
    # triplet masks
    table = derived()
    for triple in product(range(1, 8), repeat=3):
        u, v, a = triple
        value = _phi_spectrum(table[u][v][a], _KEYS[u] ^ _KEYS[v] ^ _KEYS[a])
        keys = set() if type(value) is tuple else value.keys() - {0}
        if bool(keys) == (len(set(triple)) <= 2 or frozenset(triple) in _LINES):
            got = [n for n in range(16) if all(_character(k, n) == 1 for k in keys)]
            return False, f"triple {triple}: equal set {got}"
        if len(keys) > 1 or not keys <= _DISAGREEMENT_KEYS:
            return False, (f"triple {triple}: spectrum keys {sorted(value)}, "
                           f"not one k > 0 in {sorted(_DISAGREEMENT_KEYS)}")
    return True, "all 343 ordered imaginary triples match the iff condition, their spectra read off rule 0 by phi_n"


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


# The checks that read rule 0's _derivations, built once per run_checks call; one
# called alone builds its own
_READ_DERIVATIONS = ("leibniz", "antiassociative-closed-form", "derivation-ranks", "equality-criterion")


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run every check, always all of them, in declaration order; each
    result carries the check's name and its wall time.  A check that raises
    an ``Exception`` fails, its detail the exception's type and message.
    The checks that read rule 0's :func:`_derivations` share one
    ``functools.cache`` of it, made per call; a build that raises is not
    cached, so each such check retries it and fails.
    ``quick`` is ignored: the benchmark harness still passes ``quick=False``."""
    derived, results = cache(_derivations), []
    for name, fn in ALL_CHECKS:
        start = perf_counter()
        try:
            passed, detail = fn(derived) if name in _READ_DERIVATIONS else fn()
        except Exception as exc:  # a check that raises fails, and the others still run
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, perf_counter() - start))
    return results
