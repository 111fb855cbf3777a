"""verify's proofs of the Leibniz and norm identities, its rule-0 rank
check and its two cross-rule derivation checks, read off rule 0 by the
basis change phi_n: the per-rule and all-rules routes they replaced,
kept as independent cross-checks, the basis change that carries rule
0's ranks and spectra to every rule, mutations of the kernels that they
must catch, the identities that single out the 16 rules among the 128
orientations, the detail each check prints, and a broken input that
fails each check."""

import functools
import importlib
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

# the module: the package attribute octsieve.sieve is the function sieve
SIEVE = importlib.import_module("octsieve.sieve")


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


@pytest.mark.parametrize("old, new", [("+ s0a2*b3", "- s0a2*b3"), ("- s1a7*b1", "+ s1a7*b1")])
def test_a_sign_flipped_in_one_rule_0_term_fails_both_proofs(monkeypatch, old, new):
    mutate_kernel(monkeypatch, old, new)
    # the flipped kernel is still rule 0 in each basis phi_n, so the rule-0
    # proofs, not the isomorphism, catch it
    assert verification._phi_failure() is None
    passed, detail = verification.check_leibniz()
    assert not passed and re.fullmatch(r"rule 0, basis quadruple \(e\d, e\d, e\d, e\d\): nonzero residual", detail)
    passed, detail = verification.check_norm_multiplicativity()
    assert not passed and re.fullmatch(r"rule 0, pair \[.*\], \[.*\]: \|ab\|\^2 != \|a\|\^2 \|b\|\^2", detail)


def assert_only_table_fidelity_fails():
    # under rule 0 every character is +1, so the five rule-0 checks pass;
    # table-fidelity's proof of phi_n, which they cite, fails
    for check in (verification.check_leibniz, verification.check_norm_multiplicativity,
                  verification.check_derivation_ranks, verification.check_antiassoc_closed_form,
                  verification.check_equality_criterion):
        assert check()[0]
    passed, detail = verification.check_table_fidelity()
    assert not passed and re.fullmatch(r"rule (\d+) is not rule 0 in the basis phi_\1: e\d e\d differs", detail)


def test_a_dropped_character_fails_table_fidelity_at_the_isomorphism(monkeypatch):
    mutate_kernel(monkeypatch, "+ s6a7*b3", "+ a7*b3")
    assert_only_table_fidelity_fails()


def test_a_wrong_character_in_a_presigned_product_fails_table_fidelity_at_the_isomorphism(monkeypatch):
    # s1 in place of s0 in one of the 21 products the kernel presigns: both
    # terms that read s0a2 carry triplet (1, 2, 3)'s character no more
    mutate_kernel(monkeypatch, "s0*a2", "s1*a2")
    assert_only_table_fidelity_fails()


def test_one_run_proves_phi_n_once(monkeypatch):
    phi_failure, calls = verification._phi_failure, []
    monkeypatch.setattr(verification, "_phi_failure", lambda: calls.append(None) or phi_failure())
    assert all(r.passed for r in verification.run_checks())
    assert len(calls) == 1


def count_derivations(monkeypatch):
    """Spy on ``_regrouped``: its calls, and the D values the maps it returns give."""
    regrouped, counts = derivations._regrouped, Counter()

    def spy(u, v, s):
        counts["calls"] += 1
        d = regrouped(u, v, s)
        return lambda x: counts.update(["values"]) or d(x)

    monkeypatch.setattr(derivations, "_regrouped", spy)
    return counts


def test_one_run_builds_rule_0_derivations_once(monkeypatch):
    # leibniz, antiassociative-closed-form, derivation-ranks and
    # equality-criterion read one table of D(e_u, e_v; e_a), 64 maps and
    # 512 values: each built its own, 176 maps and 1170 values in all
    counts = count_derivations(monkeypatch)
    assert all(r.passed for r in verification.run_checks())
    assert counts == {"calls": 64, "values": 512}


def test_each_run_builds_its_own_derivations(monkeypatch):
    # a run after a clean one sees D swapped for (uv)x: no table outlives its run
    assert all(r.passed for r in verification.run_checks())
    monkeypatch.setattr(derivations, "_regrouped", uv_times(derivations._regrouped))
    failed = {r.name: r.detail for r in verification.run_checks() if not r.passed}
    assert failed == {"leibniz": "rule 0, basis quadruple (e0, e0, e0, e0): nonzero residual",
                      **{name: BREAKS[name][3] for name in ("antiassociative-closed-form", "derivation-ranks",
                                                            "equality-criterion")}}


def test_a_failed_table_build_fails_each_check_that_reads_it(monkeypatch):
    # each of the four fails with the exception, and the other eight pass
    def raising(u, v, s):
        raise RuntimeError("no D")

    monkeypatch.setattr(derivations, "_regrouped", raising)
    failed = {r.name: r.detail for r in verification.run_checks() if not r.passed}
    readers = ("leibniz", "antiassociative-closed-form", "derivation-ranks", "equality-criterion")
    assert failed == dict.fromkeys(readers, "RuntimeError: no D")


def test_rule_0_derivation_matrices_are_the_imaginary_blocks_of_the_table(monkeypatch):
    # derivation-ranks reads its 21 matrices off the table: entry [i][a] of
    # (u, v)'s is D(e_u, e_v; e_a)_i.  It ranks the rows that
    # derivation_matrix gives, in full and restricted to each triplet
    table = verification._derivations(_SIGNS[0])
    for u, v in combinations(range(1, 8), 2):
        block = tuple(tuple(table[u][v][a][i] for a in range(1, 8)) for i in range(1, 8))
        assert derivations.derivation_matrix(u, v, 0) == block
    rank, ranked = derivations.integer_rank, []
    monkeypatch.setattr(derivations, "integer_rank", lambda rows: ranked.append(rows) or rank(rows))
    assert verification.check_derivation_ranks(lambda: table) == (True, FULL_DETAILS["derivation-ranks"])

    def restricted(idxs):
        return [[derivations.derivation_matrix(u, v, 0)[i - 1][j - 1] for i in idxs for j in idxs]
                for u, v in combinations(idxs, 2)]

    assert ranked == [restricted(range(1, 8)), *(restricted(sorted(t)) for t in verification._REFERENCE_TRIPLETS)]


def public_norm_failure():
    """The norm proof's rule-0 loop through the public ``multiply`` and
    ``norm_sq``: the detail of its first failing pair, or None."""
    vectors = [Octonion.unit(k) for k in range(8)]
    vectors += [x + y for i, x in enumerate(vectors) for y in vectors[i + 1:]]
    for a, b in product(vectors, repeat=2):
        if norm_sq(multiply(a, b, 0)) != norm_sq(a) * norm_sq(b):
            return f"rule 0, pair {list(a.coeffs)}, {list(b.coeffs)}: |ab|^2 != |a|^2 |b|^2"
    return None


@pytest.mark.parametrize("mutation", [None, ("+ s0a2*b3", "- s0a2*b3"), ("- s1a7*b1", "+ s1a7*b1"),
                                      ("- a1*b1", "+ a1*b1"), ("+ s4a5*b1", "- s4a5*b1")])
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


def leibniz_counterexample(s):
    """The proof's route under the kernel with characters ``s``: D read off
    ``_derivations``, as ``check_leibniz`` reads it under rule 0."""
    return verification._leibniz_counterexample(s, verification._derivations(s))


@functools.cache
def orientation_counterexamples():
    """``leibniz_counterexample`` under each of the 128 orientations of the
    seven reference triplets, on the kernel as it is."""
    return {s: leibniz_counterexample(s) for s in product((1, -1), repeat=7)}


def test_the_linear_route_to_d_of_a_product_is_the_kernel_route_on_all_128_orientations():
    for s, found in orientation_counterexamples().items():
        assert found == kernel_route_counterexample(s)


@pytest.mark.parametrize("old, new", [("+ s0a2*b3", "- s0a2*b3"), ("- s1a7*b1", "+ s1a7*b1"),
                                      ("+ s6a7*b3", "+ a7*b3")])
def test_the_linear_route_is_the_kernel_route_under_a_mutated_kernel(monkeypatch, old, new):
    mutate_kernel(monkeypatch, old, new)
    found = [leibniz_counterexample(s) for s in _SIGNS]
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


def units(triple):
    """The all-rules environment u, v, x = e_u, e_v, e_a of a basis triple."""
    return dict(zip("uvx", (Octonion.unit(k).coeffs for k in triple)))


def all_rule_matrices(u, v):
    """``derivation_matrix(u, v, n)`` for n = 0..15, from one all-rules pass
    of D per unit a: column a-1 of matrix n is the imaginary part of
    D(e_u, e_v; e_a) under rule n."""
    columns = [_per_rule(_all_rules(derivations._DERIVE, units((u, v, a)))) for a in range(1, 8)]
    return [tuple(zip(*(col[1:] for col in rule))) for rule in zip(*columns)]


def test_the_all_rules_matrices_are_the_per_rule_derivation_matrices():
    # the all-rules engine against derivation_matrix, one rule at a time
    for pair in combinations(range(1, 8), 2):
        assert all_rule_matrices(*pair) == [derivations.derivation_matrix(*pair, n) for n in range(16)]


UNIT_TRIPLES = list(product(range(1, 8), repeat=3))
ANTIASSOCIATIVE = [t for t in UNIT_TRIPLES if len(set(t)) == 3 and frozenset(t) not in verification._LINES]
ASSOCIATIVE = [t for t in UNIT_TRIPLES if frozenset(t) in verification._LINES]


# the antiassociative residual D + 2(uv)x from D's own text: under every
# rule zero exactly where D collapses to -2(uv)x
RESIDUAL = _program(parse(f"({derivations._D}) + 2*((u*v)*x)"))[0]


def residual(triple):
    """D + 2(uv)a under rules 0..15 on the basis triple, from one all-rules pass."""
    return _per_rule(_all_rules(RESIDUAL, units(triple)))


def rule_0_derive(triple):
    """D(e_u, e_v; e_a) under rule 0 through the package's ``_regrouped``."""
    u, v, a = (Octonion.unit(k).coeffs for k in triple)
    return derivations._regrouped(u, v, _SIGNS[0])(a)


def test_d_read_off_rule_0_by_phi_n_is_the_all_rules_value_on_the_343_unit_triples():
    # the route the equality criterion replaced: one all-rules pass of D per
    # triple gives the same value, tuple or spectrum, as rule 0's D with
    # component c at key kappa_u ^ kappa_v ^ kappa_a ^ kappa_c
    keys = algebra._KEYS
    for triple in UNIT_TRIPLES:
        u, v, a = triple
        spectrum = verification._phi_spectrum(rule_0_derive(triple), keys[u] ^ keys[v] ^ keys[a])
        assert spectrum == _all_rules(derivations._DERIVE, units(triple))


def test_the_rule_0_residual_is_zero_where_the_all_rules_residual_is_the_zero_tuple():
    # the route the closed-form check replaced, on all 343 unit triples: the
    # residual is 0 under every rule exactly where it is 0 under rule 0
    for triple in UNIT_TRIPLES:
        u, v, a = (Octonion.unit(k).coeffs for k in triple)
        uva = _mul(_mul(u, v, _SIGNS[0]), a, _SIGNS[0])
        rule_0_zero = not any(map(add, rule_0_derive(triple), (2 * c for c in uva)))
        assert rule_0_zero == (_all_rules(RESIDUAL, units(triple)) == (0,) * 8)
        assert rule_0_zero == (triple in ANTIASSOCIATIVE)


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
        one_tuple = type(_all_rules(derivations._DERIVE, units(triple))) is tuple
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


MUL_MUTATIONS = [("+ s0a2*b3", "- s0a2*b3"), ("- s1a7*b1", "+ s1a7*b1"), ("- a1*b1", "+ a1*b1"),
                 ("+ s4a5*b1", "- s4a5*b1"), ("+ s6a7*b3", "+ a7*b3"), ("s0*a2", "s1*a2")]


@pytest.mark.parametrize("mutation", [*MUL_MUTATIONS, *PARTS_MUTATIONS])
def test_every_kernel_mutation_fails_a_check(monkeypatch, mutation):
    # the kernel mutations of this file, the dropped and the wrong character among them:
    # whichever check catches each, one verify run reports a failure
    if isinstance(mutation, str):
        mutate_parts(monkeypatch, mutation)
    else:
        mutate_kernel(monkeypatch, *mutation)
    results = verification.run_checks()
    assert len(results) == 12 and not all(r.passed for r in results)
    if isinstance(mutation, str) and mutation.startswith("zero-mask"):
        # a zeroed mask adds a triplet part into the product's real-part
        # row, a tuple: sieve-invariance's all-rules pass raises there, and
        # the run reports that as its failure and goes on
        sieve_invariance = dict((r.name, r) for r in results)["sieve-invariance"]
        assert not sieve_invariance.passed
        assert sieve_invariance.detail == "TypeError: 'tuple' object does not support item assignment"


def test_a_keyboard_interrupt_is_not_a_failed_check(monkeypatch):
    # run_checks reports an Exception as a failed check (tests/test_cli.py);
    # an interrupt still stops the run
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(verification, "ALL_CHECKS", (("interrupted", interrupted),))
    with pytest.raises(KeyboardInterrupt):
        verification.run_checks()


def mutate_walsh(monkeypatch, old, new):
    """Patch ``_walsh`` with ``old`` rewritten as ``new`` into ``sieve`` and
    ``verification``, the modules that call it."""
    source = inspect.getsource(SIEVE._walsh)
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), namespace)
    for module in (SIEVE, verification):
        monkeypatch.setattr(module, "_walsh", namespace["_walsh"])


PRODUCT_OF_FORMS = "TypeError: unsupported operand type(s) for *: '_Form' and '_Form'"
# mutation -> (old, new), and the detail of each check it fails
WALSH_MUTATIONS = {
    "flipped-sign": (("x0 - x1,", "x1 - x0,"), {
        "hadamard-involution": "kernel: _walsh(_walsh(x))[0] != 16 x_0",
        "xor-equivariance": "kernel: _walsh output 1 is not sum_j b[j][1] x_j"}),
    "wrong-pair": (("x8 + x10", "x8 + x11"), {
        "hadamard-involution": "kernel: _walsh(_walsh(x))[0] != 16 x_0",
        "xor-equivariance": "kernel: _walsh output 0 is not sum_j b[j][0] x_j"}),
    # a product is no linear map: the formal evaluation raises, and the run
    # reports it as each check's failure
    "product": (("x0 + x1,", "x0 * x1,"), {"hadamard-involution": PRODUCT_OF_FORMS,
                                          "xor-equivariance": PRODUCT_OF_FORMS}),
}


@pytest.mark.parametrize("mutation", WALSH_MUTATIONS)
def test_a_mutated_walsh_kernel_fails_both_kernel_proofs(monkeypatch, mutation):
    (old, new), failures = WALSH_MUTATIONS[mutation]
    mutate_walsh(monkeypatch, old, new)
    results = verification.run_checks()
    assert len(results) == 12
    assert {r.name: r.detail for r in results if not r.passed} == failures


def test_swapped_walsh_stages_pass_every_check(monkeypatch):
    # the stages commute over any commutative ring, so the kernel's matrix
    # and every exact sum stay the same, and no check can see the swap.
    # Only the order of the float additions changes: test_sieve.py's
    # test_the_butterfly_is_the_stage_by_stage_loop_bit_for_bit and CI's
    # "sieve and unsieve keep their bits" step catch it
    source = inspect.getsource(SIEVE._walsh)
    one, two, three = (source.index(f"    x0, x{h}, ") for h in (1, 2, 4))
    mutate_walsh(monkeypatch, source[one:three], source[two:three] + source[one:two])
    assert all(r.passed for r in verification.run_checks())


@pytest.mark.parametrize("mutation", PARTS_MUTATIONS)
def test_a_mutated_triplet_part_fails_table_fidelity_at_a_basis_pair_on_its_triplet(monkeypatch, mutation):
    # the all-rules product reads _PARTS, and table-fidelity proves it
    mutate_parts(monkeypatch, mutation)
    passed, detail = verification.check_table_fidelity()
    match = re.fullmatch(r"the all-rules product is not rule 0's in the basis phi_n: e(\d) e(\d) differs", detail)
    assert not passed and match
    i, j = int(match[1]), int(match[2])
    mutated = {frozenset(algebra.REFERENCE_TRIPLETS[t]) for t in PARTS_MUTATIONS[mutation]}
    assert frozenset((i, j, i ^ j)) in mutated


@pytest.mark.parametrize("mutation", PARTS_MUTATIONS)
def test_a_mutated_triplet_part_leaves_both_derivation_checks_passing(monkeypatch, mutation):
    # the two cross-rule derivation checks read D off rule 0's kernel, not
    # the all-rules pass, so they never read _PARTS: table-fidelity, above,
    # is the check that catches these mutations
    mutate_parts(monkeypatch, mutation)
    for name in ("antiassociative-closed-form", "equality-criterion"):
        assert dict(verification.ALL_CHECKS)[name]() == (True, FULL_DETAILS[name])


def spectrum_keys(triple):
    value = _all_rules(derivations._DERIVE, units(triple))
    return None if type(value) is tuple else sorted(value)


def test_d_has_one_key_past_0_on_each_unit_triple_off_the_lines():
    # the 175 quaternionic triples give one tuple; each other triple a
    # spectrum of one key alone, k > 0 the XOR of two triplet masks, 24
    # triples per key
    keys = Counter(None if k is None else tuple(k) for k in map(spectrum_keys, UNIT_TRIPLES))
    assert keys == {None: 175, **{(k,): 24 for k in (1, 2, 3, 12, 13, 14, 15)}}


def test_the_16_rules_are_exactly_the_orientations_whose_inner_maps_are_derivations():
    # the paper's derivation-algebra description as a fact: over all 128
    # orientations of the seven reference triplets, D(u, v; .) is a
    # derivation (the Leibniz residual vanishes on every basis quadruple,
    # hence everywhere) for exactly the 16 rules' characters
    derivations_of = {s for s, found in orientation_counterexamples().items() if found is None}
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


def right_alternative(s):
    """Whether (ba)a == b(aa) holds under the kernel with characters ``s``:
    its polarization (ba)c + (bc)a == b(ac + ca) is trilinear, so the 512
    basis triples decide it."""
    basis = [tuple(int(i == k) for i in range(8)) for k in range(8)]
    products = [[_mul(x, y, s) for y in basis] for x in basis]
    for b, a, c in product(range(8), repeat=3):
        left = tuple(map(add, _mul(products[b][a], basis[c], s), _mul(products[b][c], basis[a], s)))
        if left != _mul(basis[b], tuple(map(add, products[a][c], products[c][a])), s):
            return False
    return True


@pytest.mark.parametrize("alternative", [left_alternative, right_alternative], ids=["left", "right"])
def test_the_16_rules_are_exactly_the_alternative_orientations(alternative):
    # over all 128 orientations of the seven reference triplets, the algebra
    # is left-alternative, and right-alternative, for exactly the 16 rules'
    # characters
    assert {s for s in product((1, -1), repeat=7) if alternative(s)} == set(_SIGNS)


FULL_DETAILS = {
    "table-fidelity": "rule 0 triplets, words 0..7, T0 pairing all exact; "
                      "rule n is rule 0 in the basis phi_n, checked on 64 basis pairs x 16 rules, "
                      "and so is the all-rules product, on 64 basis pairs",
    "norm-multiplicativity": "|ab|^2 == |a|^2 |b|^2 proved: exact on all 1296 pairs of e_i, e_i + e_j under rule 0, "
                             "carried to all 16 rules by phi_n (proved by table-fidelity)",
    "hadamard-involution": "_walsh(_walsh(x)) == 16x proved on 16 formal symbols; "
                           "unsieve(sieve(x)) == x exactly on 100 sampled integer families",
    "row-generators": "all 16 rows rebuilt from generators; 256 entries symmetric",
    "sieve-invariance": "a+b, a*a, a*b+b*a invariant over 64 trials; a*b witness: g[4] = [0, 124, -12, 28, 0, 0, 0, 0] "
                        "at a=[-5, -2, -9, 5, -4, -6, 2, -7], b=[-2, -1, -8, 1, -4, 8, 4, -8]",
    "xor-equivariance": "kernel proved on 16 formal symbols: matrix b, and g'[k] == b[m][k] g[k] for all 16 masks; "
                        "sieve(x) == the kernel's sums / 4 exactly on 20 sampled integer families",
    "leibniz": "D(ab) == D(a)b + aD(b) proved: residual exactly 0 on all 4096 basis quadruples under rule 0, "
               "carried to all 16 rules by phi_n (proved by table-fidelity)",
    "antiassociative-closed-form": "D == -2(uv)a proved: exact on all 168 antiassociative triples under rule 0, "
                                   "carried to all 2688 ordered cases by phi_n (proved by table-fidelity)",
    "flip-signatures": "7 per-triplet signatures pairwise distinct",
    "derivation-ranks": "full span rank 14 and triplet-restricted rank 3 for 16 rules",
    "equality-criterion": "all 343 ordered imaginary triples match the iff condition, "
                          "their spectra read off rule 0 by phi_n",
    "identify-roundtrip": "16 round-trips; mutated table rejected",
}


def test_every_check_passes_with_its_pinned_detail():
    # a faster route decides the same cases: each detail, counts and the
    # sieve witness included, stays as it was, in order
    results = [(r.name, r.passed, r.detail) for r in verification.run_checks()]
    assert results == [(name, True, detail) for name, detail in FULL_DETAILS.items()]
    # the benchmark harness's call: quick is accepted and ignored
    assert [(r.name, r.passed, r.detail) for r in verification.run_checks(quick=False)] == results
    # each check alone, as tests/test_acceptance.py calls it: one that reads
    # rule 0's derivations builds them itself
    assert [(name, *check()) for name, check in verification.ALL_CHECKS] == results


def sign_read_identify(_):
    """An ``identify_algebra`` that reads the rule off the seven reference
    signs and never compares the whole table."""
    return lambda table: algebra._SIGNS.index(tuple(table[a][b][0] for a, b, _ in algebra.REFERENCE_TRIPLETS))


def uv_times(_):
    """A ``_regrouped`` that gives (uv)x in place of D(u, v; x)."""
    return lambda u, v, s: lambda x: _mul(_mul(u, v, s), x, s)


def zero_d_12(f):
    """A ``_regrouped`` that gives D(e1, e2; .) == 0 under rule 0 and ``f``'s D elsewhere."""
    e1, e2 = (Octonion.unit(k).coeffs for k in (1, 2))
    return lambda u, v, s: (lambda x: (0,) * 8) if (u, v, s) == (e1, e2, _SIGNS[0]) else f(u, v, s)


def disagreeing_keys(keys):
    """A ``_phi_spectrum`` patch that, where the rules disagree, puts x at
    the keys ``keys(spectrum)`` in place of the spectrum.  (1, 2, 4), the
    first triple off the lines, has the one key 15."""
    def patch(f):
        def spectrum(x, key):
            value = f(x, key)
            return value if type(value) is tuple else dict.fromkeys(keys(value), x)
        return spectrum
    return patch


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
    # e1 e2 = e3 and e2 e1 = -e3: the first pair whose operands do not commute
    "table-fidelity/all-rules": (V, "_mul_all", lambda f: lambda a, b: f(b, a),
                                 "the all-rules product is not rule 0's in the basis phi_n: e1 e2 differs"),
    "table-fidelity/all-rules-rows": (V, "_add_product", lambda f: lambda rows, key, a, b: f(rows, key ^ 1, a, b),
                                      "the all-rules product is not rule 0's in the basis phi_n: e0 e0 differs"),
    "hadamard-involution": (V, "unsieve", lambda f: lambda g: f(g[:15] + (Octonion.zero(),)),
                            "family 0 did not round-trip"),
    "row-generators": (V, "sign_entry", lambda f: lambda j, k: -f(j, k) if (j, k) == (3, 5) else f(j, k),
                       "row 5 entry 3 mismatch"),
    "sieve-invariance": (V, "is_invariant", lambda f: lambda text, trials, seed: f("a*b", trials, seed),
                         "'a+b' refuted at k=4"),
    "sieve-invariance/a*b": (V, "is_invariant", lambda f: lambda text, trials, seed: f("a+b", trials, seed),
                             "'a*b' should have a nonzero distance"),
    "xor-equivariance": (V, "sieve", lambda f: lambda fam: f(fam[:15] + (Octonion.zero(),)),
                         "family 0: sieve(x) != the kernel's sums / 4"),
    "xor-equivariance/kernel": (V, "sign_entry", lambda f: lambda j, k: -f(j, k) if (j, k) == (3, 5) else f(j, k),
                                "kernel: _walsh output 5 is not sum_j b[j][5] x_j"),
    "xor-equivariance/mask": (V, "_character", lambda f: lambda m, k: -f(m, k) if (m, k) == (3, 5) else f(m, k),
                              "kernel: mask 3 does not scale output 5 by b[3][5]"),
    "flip-signatures": (algebra, "flip_vector", lambda f: lambda n: f(4 if n == 8 else n),
                        "signatures ((1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1), (0, 0, 1, 0), "
                        "(0, 0, 0, 1), (0, 0, 1, 1))"),
    "derivation-ranks": (derivations, "integer_rank", lambda f: lambda rows: f(rows[:7]),
                         "rule 0: full span rank 7 != 14"),
    # the other 20 matrices still span all 14 dimensions; [1, 2, 3]'s three do not
    "derivation-ranks/triplet": (derivations, "_regrouped", zero_d_12, "rule 0, triplet [1, 2, 3]: rank 2 != 3"),
    # D swapped for (uv)x: (i1 i2) i3 = -1 under rule 0, at key 4 = kappa_3, so
    # -chi(4, n) under rule n: the first quaternionic triple whose rules disagree
    "equality-criterion": (derivations, "_regrouped", uv_times,
                           "triple (1, 2, 3): equal set [0, 1, 2, 3, 8, 9, 10, 11]"),
    # D == e3 + e5 on every triple: at (1, 1, 1), K = 0, its keys are 4 and 10,
    # and the rules that agree with rule 0 are in both ker chi_4 and ker chi_10
    "equality-criterion/equal-set": (derivations, "_regrouped",
                                     lambda f: lambda u, v, s: lambda x: (0, 0, 0, 1, 0, 1, 0, 0),
                                     "triple (1, 1, 1): equal set [0, 1, 10, 11]"),
    # two disagreement keys, then one key that is no XOR of two triplet masks
    "equality-criterion/keys": (V, "_phi_spectrum", disagreeing_keys(lambda keys: [1, *keys]),
                                "triple (1, 2, 4): spectrum keys [1, 15], not one k > 0 in [1, 2, 3, 12, 13, 14, 15]"),
    "equality-criterion/mask": (V, "_phi_spectrum", disagreeing_keys(lambda keys: [5]),
                                "triple (1, 2, 4): spectrum keys [5], not one k > 0 in [1, 2, 3, 12, 13, 14, 15]"),
    # (uv)a == -2(uv)a fails at once: (1, 2, 4) is the first antiassociative triple
    "antiassociative-closed-form": (derivations, "_regrouped", uv_times, "rule 0, triple (1, 2, 4)"),
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
