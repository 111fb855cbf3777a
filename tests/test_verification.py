"""verify's proofs of the Leibniz and norm identities, its rule-0 rank
check and its all-rules derivation checks: the per-rule routes they
replaced, kept as independent cross-checks, the basis change that
carries rule 0's ranks to every rule, mutations of the kernels that they
must catch, the identities that single out the 16 rules among the 128
orientations, the detail each check prints, and a broken input that
fails each check."""

import inspect
import random
import re
from collections import Counter
from itertools import combinations, product
from operator import add

import pytest

from octsieve import algebra, derivations, verification
from octsieve.algebra import _SIGNS, Octonion, _mul, multiply, norm_sq
from octsieve.dsl import _program, parse
from octsieve.sieve import _all_rules, _per_rule, _random_ints


def sampled_leibniz(trials=1000):
    """(trial, rule) of the first nonzero Leibniz residual over ``trials``
    seeded quadruples x 16 rules through ``leibniz_check``, or None."""
    rng = random.Random(24)
    for t in range(trials):
        u, v, a, b = (Octonion(_random_ints(rng, 5)) for _ in range(4))
        for n in range(16):
            if derivations.leibniz_check(u, v, a, b, n) != 0.0:
                return t, n
    return None


def test_sampled_leibniz_agrees_with_the_proof():
    assert sampled_leibniz() is None


def test_sampled_norm_multiplicativity_agrees_with_the_proof():
    rng = random.Random(20)
    for _ in range(1000):
        a, b = (Octonion(_random_ints(rng, 9)) for _ in range(2))
        for n in range(16):
            assert norm_sq(multiply(a, b, n)) == norm_sq(a) * norm_sq(b)


def test_sampled_leibniz_fails_naming_the_rule_whose_uv_is_perturbed(monkeypatch):
    mul, calls = derivations._mul, []

    def perturbed(x, y, s):
        product = mul(x, y, s)
        if s == _SIGNS[9]:
            calls.append((x, y))
            if len(calls) % 17 == 1:  # the first of a check's 17 kernel calls is uv
                product = (product[0] + 1,) + product[1:]
        return product

    monkeypatch.setattr(derivations, "_mul", perturbed)
    assert sampled_leibniz() == (0, 9)


def test_proofs_pass_and_say_what_they_were_proved_on():
    passed, detail = verification.check_leibniz()
    assert passed and detail.startswith("D(ab) == D(a)b + aD(b) proved") and "4096 basis quadruples" in detail
    passed, detail = verification.check_norm_multiplicativity()
    assert passed and detail.startswith("|ab|^2 == |a|^2 |b|^2 proved") and "1296 pairs" in detail


def mutate_kernel(monkeypatch, old, new):
    """Patch ``_mul`` with the term ``old`` rewritten as ``new`` into every
    module the two proofs read it from."""
    source = inspect.getsource(algebra._mul)
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), namespace)
    for module in (algebra, derivations, verification):
        monkeypatch.setattr(module, "_mul", namespace["_mul"])


@pytest.mark.parametrize("old, new", [("+ s0*a2*b3", "- s0*a2*b3"), ("- s1*a7*b1", "+ s1*a7*b1")])
def test_a_sign_flipped_in_one_rule_0_term_fails_both_proofs(monkeypatch, old, new):
    mutate_kernel(monkeypatch, old, new)
    # the flipped kernel is still rule 0 in each basis phi_n, so the rule-0
    # proofs, not the isomorphism, catch it
    assert verification._phi_failure() is None
    passed, detail = verification.check_leibniz()
    assert not passed and re.fullmatch(r"rule 0, basis quadruple \(e\d, e\d, e\d, e\d\): nonzero residual", detail)
    passed, detail = verification.check_norm_multiplicativity()
    assert not passed and re.fullmatch(r"rule 0, pair \[.*\], \[.*\]: \|ab\|\^2 != \|a\|\^2 \|b\|\^2", detail)


def test_a_dropped_character_fails_both_proofs_at_the_isomorphism(monkeypatch):
    mutate_kernel(monkeypatch, "+ s6*a7*b3", "+ a7*b3")
    # under rule 0 every character is +1, so the rule-0 parts still hold
    assert verification._leibniz_counterexample(_SIGNS[0]) is None
    for check in (verification.check_leibniz, verification.check_norm_multiplicativity,
                  verification.check_derivation_ranks):
        passed, detail = check()
        assert not passed and re.fullmatch(r"rule (\d+) is not rule 0 in the basis phi_\1: e\d e\d differs", detail)


def public_norm_failure():
    """The norm proof's rule-0 loop through the public ``multiply`` and
    ``norm_sq``: the detail of its first failing pair, or None."""
    vectors = [Octonion.unit(k) for k in range(8)]
    vectors += [x + y for i, x in enumerate(vectors) for y in vectors[i + 1:]]
    for a, b in product(vectors, repeat=2):
        if norm_sq(multiply(a, b, 0)) != norm_sq(a) * norm_sq(b):
            return f"rule 0, pair {list(a.coeffs)}, {list(b.coeffs)}: |ab|^2 != |a|^2 |b|^2"
    return None


@pytest.mark.parametrize("mutation", [None, ("+ s0*a2*b3", "- s0*a2*b3"), ("- s1*a7*b1", "+ s1*a7*b1"),
                                      ("- a1*b1", "+ a1*b1"), ("+ s4*a5*b1", "- s4*a5*b1")])
def test_the_basis_product_route_to_the_norm_is_the_public_multiply_route(monkeypatch, mutation):
    # the route the norm proof replaced, on the kernel as it is and with one
    # rule-0 sign flipped: the same first failing pair, or none
    if mutation:
        mutate_kernel(monkeypatch, *mutation)
    passed, detail = verification.check_norm_multiplicativity()
    assert (None if passed else detail) == public_norm_failure()
    assert passed == (mutation is None)


def kernel_route_counterexample(s):
    """``_leibniz_counterexample`` with D(e_a e_b) computed as D applied to
    the product, through D's four kernels (once per distinct product), and
    D(e_a) e_b and e_a D(e_b) as kernel calls, on the kernel the proof reads."""
    basis, mul = verification._BASIS, verification._mul
    products = [[mul(x, y, s) for y in basis] for x in basis]
    for u, v in product(range(8), repeat=2):
        d = derivations._regrouped(basis[u], basis[v], s)
        ds = [d(x) for x in basis]
        d_products = {p: d(p) for p in set(sum(products, []))}
        for a, b in product(range(8), repeat=2):
            if d_products[products[a][b]] != tuple(map(add, mul(ds[a], basis[b], s), mul(basis[a], ds[b], s))):
                return u, v, a, b
    return None


def test_the_linear_route_to_d_of_a_product_is_the_kernel_route_on_all_128_orientations():
    for s in product((1, -1), repeat=7):
        assert verification._leibniz_counterexample(s) == kernel_route_counterexample(s)


@pytest.mark.parametrize("old, new", [("+ s0*a2*b3", "- s0*a2*b3"), ("- s1*a7*b1", "+ s1*a7*b1"),
                                      ("+ s6*a7*b3", "+ a7*b3")])
def test_the_linear_route_is_the_kernel_route_under_a_mutated_kernel(monkeypatch, old, new):
    mutate_kernel(monkeypatch, old, new)
    found = [verification._leibniz_counterexample(s) for s in _SIGNS]
    assert found == [kernel_route_counterexample(s) for s in _SIGNS]
    assert any(found)  # each mutation breaks the identity under some rule


def test_rule_n_derivation_matrices_are_rule_0_ones_conjugated_by_phi_n():
    # the carry the rank check relies on: M_n = chi_u chi_v S_n M_0 S_n with
    # S_n = diag(chi(kappa_i, n)), a sign per row, column and generator
    for n in range(16):
        chi = [algebra._character(key, n) for key in algebra._KEYS]
        for u, v in combinations(range(1, 8), 2):
            m0 = derivations.derivation_matrix(u, v, 0)
            carried = tuple(tuple(chi[u] * chi[v] * chi[i] * chi[j] * m0[i - 1][j - 1] for j in range(1, 8))
                            for i in range(1, 8))
            assert derivations.derivation_matrix(u, v, n) == carried


def all_rule_matrices(u, v):
    """``derivation_matrix(u, v, n)`` for n = 0..15, from one all-rules pass
    of D per unit a: column a-1 of matrix n is the imaginary part of
    D(e_u, e_v; e_a) under rule n."""
    columns = [_per_rule(_all_rules(derivations._DERIVE, verification._units((u, v, a)))) for a in range(1, 8)]
    return [tuple(zip(*(col[1:] for col in rule))) for rule in zip(*columns)]


def test_the_all_rules_matrices_are_the_per_rule_derivation_matrices():
    # the all-rules engine against derivation_matrix, one rule at a time
    for pair in combinations(range(1, 8), 2):
        assert all_rule_matrices(*pair) == [derivations.derivation_matrix(*pair, n) for n in range(16)]


UNIT_TRIPLES = list(product(range(1, 8), repeat=3))
ANTIASSOCIATIVE = [t for t in UNIT_TRIPLES if len(set(t)) == 3 and frozenset(t) not in verification._LINES]
ASSOCIATIVE = [t for t in UNIT_TRIPLES if frozenset(t) in verification._LINES]


def residual(triple):
    """D + 2(uv)a under rules 0..15 on the basis triple, from one all-rules pass."""
    return _per_rule(_all_rules(derivations._ANTIASSOC_RESIDUAL, verification._units(triple)))


def test_the_per_rule_closed_form_holds_in_all_2688_cases():
    # the route the closed-form check replaced: 16 rules x 8 kernel calls per triple
    assert len(ANTIASSOCIATIVE) == 168
    assert all(derivations.antiassoc_closed_form(*t, n).equal for n in range(16) for t in ANTIASSOCIATIVE)


def test_per_rule_equal_sets_are_the_all_rules_ones_on_the_343_unit_triples():
    # the route the equality criterion replaced: 16 per-rule derivations per
    # triple, against the all-rules equal set and the check's one-tuple test
    for triple in UNIT_TRIPLES:
        u, v, a = (Octonion.unit(k) for k in triple)
        per_rule = frozenset(n for n in range(16) if derivations.derive(u, v, a, n) == derivations.derive(u, v, a, 0))
        assert per_rule == derivations.cross_algebra_equal(u, v, a)
        one_tuple = type(_all_rules(derivations._DERIVE, verification._units(triple))) is tuple
        assert one_tuple == (per_rule == frozenset(range(16)))


def test_the_residual_is_nonzero_under_every_rule_on_the_42_associative_triples():
    # there D = 0 and 2(uv)a = -+2, so the closed form names only antiassociative triples
    assert len(ASSOCIATIVE) == 42
    for triple in ASSOCIATIVE:
        assert all(any(r) for r in residual(triple))


def _reoriented(t):
    m, i, j, k = algebra._PARTS[t]
    return (m, i, k, j)


PARTS_MUTATIONS = {
    **{f"reorient-{t}": {t: _reoriented(t)} for t in range(7)},
    **{f"zero-mask-{t}": {t: (0, *algebra._PARTS[t][1:])} for t in range(7)},
    **{f"swap-masks-{s}-{t}": {s: (algebra._PARTS[t][0], *algebra._PARTS[s][1:]),
                               t: (algebra._PARTS[s][0], *algebra._PARTS[t][1:])}
       for s, t in combinations(range(7), 2)},
}


def mutate_parts(monkeypatch, mutation):
    parts = list(algebra._PARTS)
    for t, part in PARTS_MUTATIONS[mutation].items():
        parts[t] = part
    monkeypatch.setattr(algebra, "_PARTS", tuple(parts))


@pytest.mark.parametrize("mutation", PARTS_MUTATIONS)
def test_a_mutated_triplet_part_fails_the_closed_form_at_a_nonzero_case(monkeypatch, mutation):
    mutate_parts(monkeypatch, mutation)
    passed, detail = verification.check_antiassoc_closed_form()
    match = re.fullmatch(r"rule (\d+), triple \((\d), (\d), (\d)\)", detail)
    assert not passed and match
    n, triple = int(match[1]), tuple(map(int, match.groups()[1:]))
    assert triple in ANTIASSOCIATIVE
    values = residual(triple)
    assert any(values[n]) and not any(map(any, values[:n]))  # the first rule nonzero there


def spectrum_keys(triple):
    value = _all_rules(derivations._DERIVE, verification._units(triple))
    return None if type(value) is tuple else sorted(value)


def test_d_has_one_key_past_0_on_each_unit_triple_off_the_lines():
    # the 175 quaternionic triples give one tuple; each other triple a
    # spectrum of one key alone, k > 0 the XOR of two triplet masks, 24
    # triples per key
    keys = Counter(None if k is None else tuple(k) for k in map(spectrum_keys, UNIT_TRIPLES))
    assert keys == {None: 175, **{(k,): 24 for k in (1, 2, 3, 12, 13, 14, 15)}}


@pytest.mark.parametrize("mutation", PARTS_MUTATIONS)
def test_a_mutated_triplet_mask_fails_the_equality_criterion_at_its_spectrum(monkeypatch, mutation):
    mutate_parts(monkeypatch, mutation)
    passed, detail = verification.check_equality_criterion()
    if mutation.startswith("reorient"):
        # a reoriented triplet flips signs but keeps every spectrum's keys:
        # antiassociative-closed-form catches it, this check cannot
        assert (passed, detail) == (True, "all 343 ordered imaginary triples match the iff condition")
        return
    # a zeroed or swapped mask moves a key out of place
    match = re.fullmatch(r"triple \((\d), (\d), (\d)\): spectrum keys (\[[\d, ]*\]), "
                         r"not one k > 0 in \[1, 2, 3, 12, 13, 14, 15\]", detail)
    assert not passed and match
    triple = tuple(map(int, match.groups()[:3]))
    assert triple in ANTIASSOCIATIVE and str(spectrum_keys(triple)) == match[4]


def test_the_16_rules_are_exactly_the_orientations_whose_inner_maps_are_derivations():
    # the paper's derivation-algebra description as a fact: over all 128
    # orientations of the seven reference triplets, D(u, v; .) is a
    # derivation (the Leibniz residual vanishes on every basis quadruple,
    # hence everywhere) for exactly the 16 rules' characters
    derivations_of = {s for s in product((1, -1), repeat=7) if verification._leibniz_counterexample(s) is None}
    assert derivations_of == set(_SIGNS)


def left_alternative(s):
    """Whether (aa)b == a(ab) holds under the kernel with characters ``s``:
    its polarization (ac + ca)b == a(cb) + c(ab) is trilinear, so the 512
    basis triples decide it."""
    basis = [tuple(int(i == k) for i in range(8)) for k in range(8)]
    products = [[_mul(x, y, s) for y in basis] for x in basis]
    for a, c, b in product(range(8), repeat=3):
        left = _mul(tuple(map(add, products[a][c], products[c][a])), basis[b], s)
        if left != tuple(map(add, _mul(basis[a], products[c][b], s), _mul(basis[c], products[a][b], s))):
            return False
    return True


def test_the_16_rules_are_exactly_the_left_alternative_orientations():
    # over all 128 orientations of the seven reference triplets, the algebra
    # is left-alternative for exactly the 16 rules' characters
    assert {s for s in product((1, -1), repeat=7) if left_alternative(s)} == set(_SIGNS)


FULL_DETAILS = {
    "table-fidelity": "rule 0 triplets, words 0..7, T0 pairing all exact",
    "norm-multiplicativity": "|ab|^2 == |a|^2 |b|^2 proved: exact on all 1296 pairs of e_i, e_i + e_j under rule 0, "
                             "carried to all 16 rules by phi_n (checked on 64 basis pairs x 16 rules)",
    "hadamard-involution": "unsieve(sieve(x)) == x exactly on 100 integer families",
    "row-generators": "all 16 rows rebuilt from generators; 256 entries symmetric",
    "sieve-invariance": "a+b, a*a, a*b+b*a invariant over 64 trials; a*b witness: g[4] = [0, 124, -12, 28, 0, 0, 0, 0] "
                        "at a=[-5, -2, -9, 5, -4, -6, 2, -7], b=[-2, -1, -8, 1, -4, 8, 4, -8]",
    "xor-equivariance": "all 16 masks on 20 families: g'[k] == b[m][k] g[k]",
    "leibniz": "D(ab) == D(a)b + aD(b) proved: residual exactly 0 on all 4096 basis quadruples under rule 0, "
               "carried to all 16 rules by phi_n (checked on 64 basis pairs x 16 rules)",
    "antiassociative-closed-form": "D == -2(uv)a in all 2688 ordered cases",
    "flip-signatures": "7 per-triplet signatures pairwise distinct",
    "derivation-ranks": "full span rank 14 and triplet-restricted rank 3 for 16 rules",
    "equality-criterion": "all 343 ordered imaginary triples match the iff condition",
    "identify-roundtrip": "16 round-trips; mutated table rejected",
}


def test_every_check_passes_with_its_pinned_detail():
    # a faster route decides the same cases: each detail, counts and the
    # sieve witness included, stays as it was, in order
    results = [(r.name, r.passed, r.detail) for r in verification.run_checks()]
    assert results == [(name, True, detail) for name, detail in FULL_DETAILS.items()]
    # the benchmark harness's call: quick is accepted and ignored
    assert [(r.name, r.passed, r.detail) for r in verification.run_checks(quick=False)] == results


def sign_read_identify(_):
    """An ``identify_algebra`` that reads the rule off the seven reference
    signs and never compares the whole table."""
    return lambda table: algebra._SIGNS.index(tuple(table[a][b][0] for a, b, _ in algebra.REFERENCE_TRIPLETS))


V = verification
# check name[/case] -> (module, attribute, the patch made from its original,
# the check's failure detail): code the check reads is broken, never its
# frozen reference data.  With the kernel mutations above, each of the 12
# checks has a test that fails it
BREAKS = {
    "table-fidelity": (algebra, "triplet_set", lambda f: lambda n: (f(n)[0], algebra.parity_word(1)),
                       "rule 0 mismatch: ((1, 2, 3), (7, 6, 1), (5, 7, 2), (6, 5, 3), (1, 4, 5), (2, 4, 6), "
                       "(3, 4, 7)) ++--+--"),
    "table-fidelity/words": (algebra, "parity_word", lambda f: lambda n: f(n & 6), "rule 1: +++++++ != ++--+--"),
    "table-fidelity/T0": (algebra, "flip_vector", lambda f: lambda n: f(n & 7), "rules 0/8 do not differ by T0"),
    "hadamard-involution": (V, "unsieve", lambda f: lambda g: f(g[:15] + (Octonion.zero(),)),
                            "family 0 did not round-trip"),
    "row-generators": (V, "sign_entry", lambda f: lambda j, k: -f(j, k) if (j, k) == (3, 5) else f(j, k),
                       "row 5 entry 3 mismatch"),
    "sieve-invariance": (V, "is_invariant", lambda f: lambda text, trials, seed: f("a*b", trials, seed),
                         "'a+b' refuted at k=4"),
    "sieve-invariance/a*b": (V, "is_invariant", lambda f: lambda text, trials, seed: f("a+b", trials, seed),
                             "'a*b' should have a nonzero distance"),
    "xor-equivariance": (V, "sieve", lambda f: lambda fam: f(fam[:15] + (Octonion.zero(),)),
                         "family 0, mask 1, distance 0 mismatch"),
    "flip-signatures": (algebra, "GENERATOR_FLIPS", lambda flips: {**flips, 8: flips[4]},
                        "signatures ((1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 0), "
                        "(0, 0, 0, 1), (0, 0, 1, 1))"),
    "derivation-ranks": (derivations, "derivation_span_rank", lambda f: lambda pairs, n, **kw: f(pairs[:7], n, **kw),
                         "rule 0: full span rank 7 != 14"),
    "derivation-ranks/triplet": (derivations, "derivation_matrix",
                                 lambda f: lambda u, v, n: ((0,) * 7,) * 7 if (u, v, n) == (1, 2, 0) else f(u, v, n),
                                 "rule 0, triplet [1, 2, 3]: rank 2 != 3"),
    # (i1 i2) i3 = -chi(4, n): the first quaternionic triple whose rules disagree
    "equality-criterion": (derivations, "_DERIVE", lambda f: _program(parse("(u*v)*x"))[0],
                           "triple (1, 2, 3): equal set [0, 1, 2, 3, 8, 9, 10, 11]"),
    "identify-roundtrip": (algebra, "identify_algebra", lambda f: lambda table: f(table) & 7,
                           "rule 8 did not round-trip"),
    "identify-roundtrip/rejection": (algebra, "identify_algebra", sign_read_identify, "mutated table was not rejected"),
}


@pytest.mark.parametrize("case", BREAKS)
def test_each_check_fails_when_code_it_reads_is_broken(monkeypatch, case):
    module, name, patch, detail = BREAKS[case]
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    check = dict(verification.ALL_CHECKS)[case.partition("/")[0]]
    assert check() == (False, detail)


def test_the_row_generators_build_a_symmetric_matrix():
    # row-generators matches sign_entry with these rows, so sign_entry is symmetric too
    gens = verification._ROW_GENERATORS
    rows = [[(-1) ** sum(k & b > 0 and w[j] == "-" for b, w in gens.items()) for j in range(16)] for k in range(16)]
    assert rows == [list(column) for column in zip(*rows)]


def test_the_reference_signatures_are_pairwise_distinct():
    # flip-signatures compares the signatures with _SIGNATURES, so they are distinct too
    assert len(set(verification._SIGNATURES)) == len(verification._SIGNATURES) == 7
