"""Octonion arithmetic and the 16 multiplication tables."""

import math
import numbers
import random
import re
import warnings
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from octsieve import algebra
from octsieve.algebra import (
    _KEYS,
    _SIGNS,
    _TRIPLET_MASKS,
    _character,
    _mul,
    _mul_all,
    NotEquivalentAlgebraError,
    REFERENCE_TRIPLETS,
    Octonion,
    conjugate,
    flip_vector,
    generator_word,
    identify_algebra,
    inverse,
    mul_table,
    multiply,
    norm,
    norm_sq,
    parity_word,
    triplet_set,
)
from octsieve.sieve import _per_rule

# The eight left-handed parity words, in algebra-id order.
LEFT_WORDS = ["+++++++", "++--+--", "+-+--+-", "+--+--+", "----+++", "--+++--", "-+-+-+-", "-++---+"]


def unit(k):
    return Octonion.unit(k)


def table_multiply(a, b, n):
    """Reference product: the bilinear loop over rule n's signed table,
    summing terms in ascending i and skipping zero coefficients."""
    table = mul_table(n)
    out = [0] * 8
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj == 0:
                continue
            s, k = table[i][j]
            out[k] += s * ai * bj
    return tuple(out)


def typed(coeffs):
    return [(type(c), c) for c in coeffs]


def rational(coeffs):
    """Each coefficient's value and whether it is a float.  An int and a
    Fraction of equal value print alike, and which of the two an exact
    result is depends on the terms summed: a shortcut that skips a term
    Fraction(0) * 1 keeps an int where the kernel's full sum is a Fraction."""
    return [(type(c) is float, c) for c in coeffs]


def phi(n, coeffs):
    """The basis change phi_n of rule 0 into rule n: coefficient i times the
    character of unit i's key at n.  It is its own inverse."""
    return tuple(_character(key, n) * c for key, c in zip(_KEYS, coeffs))


def flipped(table, signs):
    """``table`` in the basis e_i -> signs[i] e_i."""
    return tuple(tuple((s * signs[i] * signs[j] * signs[k], k) for j, (s, k) in enumerate(row))
                 for i, row in enumerate(table))


def rand_oct(rng, bound=9):
    return Octonion(rng.randint(-bound, bound) for _ in range(8))


def test_reference_triplet_set():
    triplets, word = triplet_set(0)
    assert triplets == ((1, 2, 3), (7, 6, 1), (5, 7, 2), (6, 5, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7))
    assert word == "+++++++"


def test_left_handed_parity_words():
    for n, expected in enumerate(LEFT_WORDS):
        assert parity_word(n) == expected


def test_triplet_set_1_oriented_display():
    # odd triplets are written with the last two indices transposed
    triplets, word = triplet_set(1)
    assert word == "++--+--"
    assert triplets == ((1, 2, 3), (7, 6, 1), (5, 2, 7), (6, 3, 5), (1, 4, 5), (2, 6, 4), (3, 7, 4))


def test_parity_word_12_flips_everything():
    # mask 12 composes the 3-flip and 4-flip generators: all seven swap
    assert parity_word(12) == "-------"


def test_right_handed_words_differ_by_t0():
    # rules n and n ^ 8, of opposite handedness, differ on the same 3 triplets
    t0 = (0, 0, 0, 0, 1, 1, 1)
    for n in range(16):
        xor = tuple(a ^ b for a, b in zip(flip_vector(n), flip_vector(n ^ 8)))
        assert xor == t0


# The flip flags of the generators T0..T3 as literals, keyed by bit weight.
GENERATORS = {
    8: (0, 0, 0, 0, 1, 1, 1),
    4: (1, 1, 1, 1, 0, 0, 0),
    2: (0, 1, 0, 1, 1, 0, 1),
    1: (0, 0, 1, 1, 0, 1, 1),
}


def test_flips_and_characters_are_views_of_the_triplet_masks():
    # the generator patterns as literals, and the XOR composition that
    # flip_vector used to compute from them
    assert {bit: flip_vector(bit) for bit in GENERATORS} == GENERATORS
    assert [sum(pattern) for pattern in GENERATORS.values()] == [3, 4, 4, 4]
    for n in range(16):
        composed = (0,) * 7
        for bit, pattern in GENERATORS.items():
            if n & bit:
                composed = tuple(a ^ b for a, b in zip(composed, pattern))
        assert flip_vector(n) == composed
        assert _SIGNS[n] == tuple(-1 if f else 1 for f in composed)


def orientation(n):
    """Rule n's flips, parity word, oriented triplets and reference products."""
    table = mul_table(n)
    return flip_vector(n), parity_word(n), triplet_set(n), tuple(table[a][b] for a, b, _ in REFERENCE_TRIPLETS)


def read_off(signs):
    """The same four, read off a row of seven triplet characters."""
    word = "".join("-" if s < 0 else "+" for s in signs)
    triplets = tuple((a, b, c) if s > 0 else (a, c, b) for s, (a, b, c) in zip(signs, REFERENCE_TRIPLETS))
    return (tuple(int(s < 0) for s in signs), word, (triplets, word),
            tuple((s, c) for s, (_, _, c) in zip(signs, REFERENCE_TRIPLETS)))


def test_each_rule_s_orientation_is_read_off_its_row_of_signs(monkeypatch):
    for n in range(16):
        assert orientation(n) == read_off(_SIGNS[n])
    # a row that is no rule: rule 3's with triplet 0 flipped; all four follow it
    row = (-_SIGNS[3][0],) + _SIGNS[3][1:]
    assert row not in _SIGNS
    monkeypatch.setattr(algebra, "_SIGNS", _SIGNS[:3] + (row,) + _SIGNS[4:])
    assert orientation(3) == read_off(row)
    assert all(orientation(n) == read_off(_SIGNS[n]) for n in range(16) if n != 3)


def test_sixteen_parity_words_distinct_and_xor_closed():
    vectors = [flip_vector(n) for n in range(16)]
    assert len(set(vectors)) == 16
    pool = set(vectors)
    for a in vectors:
        for b in vectors:
            assert tuple(x ^ y for x, y in zip(a, b)) in pool


def test_invalid_algebra_id():
    for bad in (-1, 16, 3.0, "3"):
        for f in (triplet_set, mul_table, flip_vector, parity_word, generator_word):
            with pytest.raises(ValueError):
                f(bad)


# The parity group Z2^4 is the algebra id under XOR: element m acts on rule
# n as n -> n ^ m, and its generators T0..T3 are the bits 8, 4, 2, 1.
def test_xor_is_the_group_law_on_flip_vectors():
    assert flip_vector(0) == (0,) * 7
    assert flip_vector(2 ^ 1) == (0, 1, 1, 0, 1, 1, 0)
    for m in range(16):
        for k in range(16):
            assert flip_vector(m ^ k) == tuple(a ^ b for a, b in zip(flip_vector(m), flip_vector(k)))


def reversed_where(t, flags):
    """An orbit element (oriented triplets, parity word) with each flagged
    triplet reversed: its last two indices transposed, its sign swapped."""
    triplets, word = t
    return (tuple((a, c, b) if f else (a, b, c) for f, (a, b, c) in zip(flags, triplets)),
            "".join({"+": "-", "-": "+"}[w] if f else w for f, w in zip(flags, word)))


def test_mask_m_takes_rule_n_to_rule_n_xor_m():
    assert triplet_set(0 ^ 1) == reversed_where(triplet_set(0), flip_vector(1))
    for m in range(16):
        for n in range(16):
            assert triplet_set(n ^ m) == reversed_where(triplet_set(n), flip_vector(m))
        # free and transitive: the orbit of every rule is all 16 words
        assert len({parity_word(n ^ m) for n in range(16)}) == 16


def test_each_mask_is_an_involution_on_the_rules():
    for m in range(16):
        assert flip_vector(m ^ m) == (0,) * 7
        for n in range(16):
            t = triplet_set(n)
            assert reversed_where(reversed_where(t, flip_vector(m)), flip_vector(m)) == t
            assert triplet_set(n ^ m ^ m) == t


def test_generator_words_compose_by_xor():
    def generators(n):
        return set(generator_word(n).split("*")) - {"id"}
    assert generator_word((4 ^ 2) ^ (4 ^ 1)) == "T2*T3"
    for m in range(16):
        assert generator_word(m ^ m) == generator_word(0) == "id"
        for k in range(16):
            assert generators(m ^ k) == generators(m) ^ generators(k)


def test_handedness_is_bit_8_and_the_parity_of_the_reversed_triplets():
    # T0 reverses 3 triplets and T1..T3 reverse 4 each, so the count of
    # reversed triplets is odd exactly on the right-handed rules n & 8
    for n in range(16):
        assert parity_word(n).count("-") % 2 == (1 if n & 8 else 0)
        assert ("T0" in generator_word(n)) == bool(n & 8) != ("T0" in generator_word(n ^ 8))


def test_the_fano_lines_of_the_group_are_the_reference_triplets():
    lines = {frozenset((a, b, a ^ b)) for a in range(1, 8) for b in range(1, 8) if a != b}
    assert lines == {frozenset(t) for t in REFERENCE_TRIPLETS} and len(lines) == 7
    assert frozenset((4, 2, 4 ^ 2)) in lines  # T1, T2 and T1*T2
    for unit_index in range(1, 8):
        assert sum(unit_index in line for line in lines) == 3


def test_the_reference_triplets_are_closed_under_xor():
    # the product of two elements on a line is the third
    for a, b, c in REFERENCE_TRIPLETS:
        assert (a ^ b, b ^ c, a ^ c) == (c, a, b)


def test_the_generator_flips_are_read_through_flip_vector():
    # the README's recipe for the removed GENERATOR_FLIPS
    import octsieve

    assert not hasattr(algebra, "GENERATOR_FLIPS") and not hasattr(octsieve, "GENERATOR_FLIPS")
    flips = {bit: flip_vector(bit) for bit in (8, 4, 2, 1)}
    assert flips == GENERATORS and list(flips) == [8, 4, 2, 1]


def test_generator_words():
    words = [generator_word(n) for n in range(16)]
    assert words[:3] == ["id", "T3", "T2"] and words[5] == "T1*T3" and parity_word(5) == "--+++--"
    assert (words[8], words[12], words[15]) == ("T0", "T0*T1", "T0*T1*T2*T3")
    assert len(set(words)) == 16
    for n, word in enumerate(words):  # the product of its generators' bits is the rule
        bits = [8 >> int(g[1]) for g in word.split("*")] if n else []
        assert sum(bits) == n and bits == sorted(bits, reverse=True)


def test_flip_signatures_pairwise_distinct():
    # triplet t's signature under (T0, T1, T2, T3) is its mask m_t, in bits
    patterns = [flip_vector(bit) for bit in (8, 4, 2, 1)]
    signatures = [tuple(p[t] for p in patterns) for t in range(7)]
    assert signatures == [
        (0, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (0, 1, 1, 1),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 1),
    ]
    assert len(set(signatures)) == 7
    assert [int("".join(map(str, sig)), 2) for sig in signatures] == list(_TRIPLET_MASKS)


def test_rule_n_xor_12_is_the_opposite_algebra_of_rule_n():
    # T0*T1 flips all seven triplets: e_i e_j under rule n ^ 12 is e_j e_i under rule n
    for n in range(16):
        table, opposite = mul_table(n), mul_table(n ^ 12)
        assert all(opposite[i][j] == table[j][i] for i in range(8) for j in range(8))


def test_mul_table_reference_entries():
    table = mul_table(0)
    assert table[1][2] == (1, 3)
    assert table[3][3] == (-1, 0)
    assert mul_table(4)[1][2] == (-1, 3)


def test_mul_table_invariants_all_rules():
    for n in range(16):
        table = mul_table(n)
        for k in range(8):
            assert table[0][k] == (1, k)
            assert table[k][0] == (1, k)
        for k in range(1, 8):
            assert table[k][k] == (-1, 0)
        for l in range(1, 8):
            for m in range(1, 8):
                s, k = table[l][m]
                assert 0 <= k <= 7
                if l != m:
                    assert table[m][l] == (-s, k)


def test_every_rule_is_rule_0_conjugated_by_phi_n():
    # (s, k) at [i][j] in rule 0 is (s * chi(kappa_i ^ kappa_j ^ kappa_k, n), k) in rule n
    base = mul_table(0)
    for n in range(16):
        table = mul_table(n)
        for i in range(8):
            for j in range(8):
                s, k = base[i][j]
                assert table[i][j] == (s * _character(_KEYS[i] ^ _KEYS[j] ^ _KEYS[k], n), k)


def test_the_128_sign_flips_of_the_imaginary_units_give_the_16_rules_8_each():
    base = mul_table(0)
    counts = Counter()
    for bits in range(128):
        signs = (1,) + tuple(-1 if bits >> i & 1 else 1 for i in range(7))
        counts[identify_algebra(flipped(base, signs))] += 1
    assert counts == dict.fromkeys(range(16), 8)


def test_triplets_associate_within_each_rule():
    for n in range(16):
        for l, m, k in triplet_set(n)[0]:
            il, im, ik = unit(l), unit(m), unit(k)
            assert multiply(il, im, n) == ik
            assert multiply(im, ik, n) == il
            assert multiply(ik, il, n) == im
            lhs = multiply(multiply(il, im, n), ik, n)
            rhs = multiply(il, multiply(im, ik, n), n)
            assert lhs == rhs


def test_multiply_basics():
    assert multiply(unit(1), unit(2), 0) == unit(3)
    assert multiply(unit(1), unit(2), 4) == -unit(3)
    rng = random.Random(0)
    for n in range(16):
        x = rand_oct(rng)
        assert multiply(Octonion.one(), x, n) == x
        assert multiply(x, Octonion.one(), n) == x


def test_norm_multiplicativity_random():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rand_oct(rng), rand_oct(rng)
        for n in range(16):
            assert norm_sq(multiply(a, b, n)) == norm_sq(a) * norm_sq(b)


def test_alternativity():
    rng = random.Random(2)
    for _ in range(100):
        a, b = rand_oct(rng), rand_oct(rng)
        for n in range(16):
            assert multiply(multiply(a, a, n), b, n) == multiply(a, multiply(a, b, n), n)


def test_conjugate():
    assert conjugate(Octonion.one()) == Octonion.one()
    assert conjugate(unit(5)) == -unit(5)
    rng = random.Random(3)
    for n in range(16):
        a = rand_oct(rng)
        assert multiply(conjugate(a), a, n) == Octonion.real(norm_sq(a))


def test_norm_values():
    assert norm(Octonion.one()) == 1
    assert norm(Octonion.zero()) == norm(Octonion((0.0,) * 8)) == 0
    assert norm(Octonion((0, 3, 4, 0, 0, 0, 0, 0))) == 5
    a = Octonion((1, 1, 0, 0, 0, 0, 0, 0))
    b = Octonion((0, 1, 1, 0, 0, 0, 0, 0))
    for n in range(16):
        assert norm(multiply(a, b, n)) == 2


def test_norm_of_an_exact_square_past_the_float_range():
    # |a|^2 overflows a float, |a| does not
    assert norm(Octonion((10**200,) + (0,) * 7)) == 1e200
    assert norm(Octonion((3 * 10**200, 4 * 10**200) + (0,) * 6)) == 5e200
    # 10**200 / 3 has no float; its nearest one is the root, rounded once
    got = norm(Octonion((Fraction(10**200, 3),) + (0,) * 7))
    assert type(got) is float and got == 3.3333333333333334e199
    with pytest.raises(OverflowError):
        norm(Octonion((10**400,) + (0,) * 7))


# the floats 3e200 and 4e200 are not 3 and 4 times 10^200, and the root of
# their squares' exact sum rounds to the float below 5e200
@pytest.mark.parametrize("coeffs, expected",
                         [((1e200,), 1e200), ((3e200, 4e200), 4.9999999999999995e200), ((1e-200,), 1e-200)],
                         ids=["1e200", "3e200-4e200", "1e-200"])
def test_a_float_norm_whose_square_leaves_the_float_range(coeffs, expected):
    # the squares overflow to inf or underflow to 0.0; the norm does neither
    assert norm(Octonion(coeffs + (0,) * (8 - len(coeffs)))) == expected


@pytest.mark.parametrize("c", [1e200, 1e-200], ids=["1e200", "1e-200"])
def test_a_float_inverse_whose_norm_square_leaves_the_float_range(c):
    # c*c is inf or 0.0, which would give the zero octonion or a
    # ZeroDivisionError: the quotients are the exact ones of c read as the
    # rational it is
    got = inverse(Octonion((c,) + (0,) * 7), 0)
    assert typed(got) == typed((1 / Fraction(c),) + (Fraction(0),) * 7)


@pytest.mark.parametrize("coeffs, expected", [
    # math.sqrt(q**2) rounds q**2 to a float first: 0.0, 2.999983300727547e-160 and 3.1434555694052576e-162
    ((Fraction(1, 10**200),), 1e-200),
    ((Fraction(3, 10**160),), 3e-160),
    ((Fraction(3, 10**162),), 3e-162),
    # sqrt((2**54 + 2)**2 + 1/9) is just past 2**54 + 2, the midpoint of two
    # floats, and the integer part of the scaled square is the midpoint's
    # square: the remainder of that division decides it
    ((2**54 + 2, Fraction(1, 3)), 2.0**54 + 4),
    # just past half the least subnormal: rounded to 53 bits first, the root
    # was the midpoint 2**-1075 and then rounded to the even 0.0
    ((Fraction(1, 2**1075) * (1 + Fraction(1, 2**60)),), 5e-324),
    # midpoints of two subnormals round to the even one
    ((Fraction(1, 2**1075),), 0.0),
    ((Fraction(3, 2**1075),), 1e-323),
    ((Fraction(5, 2**1075),), 1e-323),
], ids=["1e-200", "3e-160", "3e-162", "midpoint", "past-half-the-least-subnormal", "tie-0", "tie-2", "tie-2-again"])
def test_a_rational_norm_is_rounded_once(coeffs, expected):
    assert norm(Octonion(coeffs + (0,) * (8 - len(coeffs)))) == expected


def test_an_int_norm_square_that_fits_a_float_has_its_float_root():
    # |a|^2 < 2**53 is a float exactly, and math.sqrt rounds its root once:
    # the exact root truncated, not rounded, differs on 517 of these 5000
    rng = random.Random(6)
    for _ in range(5000):
        a = Octonion(rng.randrange(-2**25, 2**25) >> rng.randrange(26) for _ in range(8))
        assert norm(a) == math.sqrt(norm_sq(a))


def test_a_float_norm_and_inverse_are_exact():
    # |a|^2 is summed on the rationals the floats are: math.sqrt of the float
    # sum of squares gives 0.37416573867739417, one ulp off
    assert norm(Octonion([0.1, 0.2, 0.3, 0, 0, 0, 0, 0])) == 0.3741657386773941
    rng = random.Random(5)
    for _ in range(200):
        a = Octonion(rng.uniform(-1e3, 1e3) for _ in range(8))
        q = sum(Fraction(c) ** 2 for c in a)
        assert typed(inverse(a, 0)) == typed(Fraction(c) / q for c in conjugate(a))


def test_inverse():
    assert inverse(unit(1), 0) == -unit(1)
    assert typed(inverse(Octonion.real(2), 7)) == typed((Fraction(1, 2),) + (Fraction(0),) * 7)
    rng = random.Random(4)
    for n in range(16):
        for _ in range(10):
            a = rand_oct(rng)
            while a.is_zero():
                a = rand_oct(rng)
            exact = Octonion(Fraction(c, rng.randint(1, 9)) for c in a)
            for x in (a, exact):
                assert multiply(inverse(x, n), x, n) == multiply(x, inverse(x, n), n) == Octonion.one()
    # a float octonion's inverse holds the exact quotients
    half = Octonion((0.5, -0.5, 0.5, 0, 0, 0, 0.5, 0))
    assert typed(inverse(half, 3)) == typed(map(Fraction, (0.5, 0.5, -0.5, 0, 0, 0, -0.5, 0)))
    assert multiply(inverse(half, 3), half, 3) == Octonion.one()
    with pytest.raises(ZeroDivisionError):
        inverse(Octonion.zero(), 0)


def test_rational_coefficients_are_exact():
    third = Octonion((Fraction(1, 3),) * 8)
    assert typed((3 * third).coeffs) == typed((Fraction(1),) * 8)
    assert third * Fraction(3, 2) == Octonion((Fraction(1, 2),) * 8)
    with pytest.raises(TypeError):
        Octonion((True,) + (0,) * 7)


def test_identify_algebra_roundtrip():
    for n in range(16):
        assert identify_algebra(mul_table(n)) == n


def test_identify_algebra_rejects_non_fano_table():
    mutated = [list(row) for row in mul_table(0)]
    mutated[1][2] = (1, 4)
    mutated[2][1] = (-1, 4)
    with pytest.raises(NotEquivalentAlgebraError):
        identify_algebra(tuple(tuple(row) for row in mutated))
    # the seven read products e_a e_b are rule 0's, only the mirror e2 e1 is not
    mirror = [list(row) for row in mul_table(0)]
    mirror[2][1] = (1, 3)
    with pytest.raises(NotEquivalentAlgebraError):
        identify_algebra(mirror)
    # triplet (1, 2, 3) reversed on all six of its entries: a consistent
    # orientation, one of the 112 that are no rule
    reversed_123 = [list(row) for row in mul_table(0)]
    for i, j in permutations((1, 2, 3), 2):
        s, k = reversed_123[i][j]
        reversed_123[i][j] = (-s, k)
    assert sum(tuple(row) != base for row, base in zip(reversed_123, mul_table(0))) == 3
    with pytest.raises(NotEquivalentAlgebraError):
        identify_algebra(reversed_123)


def test_identify_algebra_rejects_malformed_shapes():
    with pytest.raises(ValueError):
        identify_algebra([[(1, 0)] * 7] * 8)
    bad_entry = [list(row) for row in mul_table(0)]
    bad_entry[1][2] = (2, 3)
    with pytest.raises(ValueError):
        identify_algebra(bad_entry)
    # rule 5's table with float entries, True for each +1 sign, or True for
    # index 1: each compares equal to the int entry, but is not one
    rule5 = mul_table(5)
    for bad in ([[(float(s), float(k)) for s, k in row] for row in rule5],
                [[(True if s == 1 else s, k) for s, k in row] for row in rule5],
                [[(s, True if k == 1 else k) for s, k in row] for row in rule5]):
        with pytest.raises(ValueError, match=re.escape("table entries must be (sign, index 0..7)")):
            identify_algebra(bad)


def test_a_structure_tensor_reads_as_the_signed_table():
    # the README's recipe: identify_algebra reads the signed table alone
    import octsieve.algebra

    assert not hasattr(octsieve.algebra, "table_from_tensor")
    tensor = [[[0.0] * 8 for _ in range(8)] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            s, k = mul_table(9)[i][j]
            tensor[i][j][k] = float(s)

    def signed(t):
        return [[next((int(c), k) for k, c in enumerate(t[i][j]) if c) for j in range(8)] for i in range(8)]

    assert signed(tensor) == [list(row) for row in mul_table(9)]
    assert identify_algebra(signed(tensor)) == 9
    tensor[1][2] = [0, 0, 0, 0.5, 0, 0, 0, 0]
    with pytest.raises(ValueError, match=r"got \(0, 3\)$"):
        identify_algebra(signed(tensor))


def test_octonion_validation_and_immutability():
    with pytest.raises(ValueError):
        Octonion((1, 2, 3))
    with pytest.raises(ValueError):
        Octonion((math.nan,) + (0,) * 7)
    with pytest.raises(ValueError):
        Octonion((math.inf,) + (0,) * 7)
    with pytest.raises(TypeError):
        Octonion(("x",) + (0,) * 7)
    a = unit(1)
    with pytest.raises(AttributeError):
        a.coeffs = (0,) * 8
    with pytest.raises(TypeError):
        a * unit(2)  # octonion products need a rule
    with pytest.raises(ValueError, match="basis index"):
        unit(8)


@numbers.Integral.register
class Wrapping64:
    """A fixed-width integer from outside the package, as numpy's int64 is:
    a registered ``numbers.Integral`` whose sums and products wrap around
    past 2^63."""

    def __init__(self, value):
        self.value = (int(value) + 2**63) % 2**64 - 2**63

    def __int__(self):
        return self.value

    numerator = property(__int__)
    denominator = 1

    def _wrapped(op):
        def method(self, other):
            if not isinstance(other, (int, Wrapping64)):
                return NotImplemented
            return Wrapping64(op(self.value, int(other)))
        return method

    __add__ = __radd__ = _wrapped(lambda x, y: x + y)
    __sub__ = _wrapped(lambda x, y: x - y)
    __rsub__ = _wrapped(lambda x, y: y - x)
    __mul__ = __rmul__ = _wrapped(lambda x, y: x * y)
    del _wrapped

    def __neg__(self):
        return Wrapping64(-self.value)


def fixed_width_integers():
    """Wrapping64, and numpy's int64 where numpy is installed."""
    try:
        import numpy
    except ImportError:
        return [Wrapping64]
    return [Wrapping64, numpy.int64]


@pytest.mark.parametrize("wide", fixed_width_integers(), ids=lambda t: t.__name__)
def test_a_fixed_width_integer_is_held_as_the_int_it_is(wide):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert int(wide(2**62) * wide(2**62)) == 0  # the type itself wraps around
    x = Octonion([wide(2**62), 1, Fraction(1, 2), 0.5, wide(-3), 0, 0, 0])
    assert x.coeffs == (2**62, 1, Fraction(1, 2), 0.5, -3, 0, 0, 0)
    assert [type(c) for c in x.coeffs] == [int, int, Fraction, float, int, int, int, int]
    y = Octonion([wide(2**62)] + [0] * 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when int64 products wrap
        assert multiply(y, y, 0) == Octonion([2**124] + [0] * 7) and norm_sq(y) == 2**124
        scaled = Octonion(range(8)) * wide(2**62)
        assert scaled == wide(2**62) * Octonion(range(8)) == Octonion([k * 2**62 for k in range(8)])
    assert all(type(c) is int for c in scaled.coeffs)


def test_a_bool_scalar_is_a_type_error_like_a_bool_coefficient():
    with pytest.raises(TypeError, match="got True$"):
        Octonion([True] + [0] * 7)
    for scale in (lambda o: o * True, lambda o: False * o):
        with pytest.raises(TypeError, match=r"^a scalar must be a real number, got (True|False)$"):
            scale(Octonion(range(8)))


class Reflected:
    """An operand that takes every operation an octonion declines, and
    records it."""

    __hash__ = None

    def __init__(self):
        self.calls = []

    def _recorded(name):
        def method(self, other):
            self.calls.append((name, other))
            return name
        return method

    __radd__ = _recorded("__radd__")
    __rsub__ = _recorded("__rsub__")
    __rmul__ = _recorded("__rmul__")
    __eq__ = _recorded("__eq__")
    del _recorded


def test_an_operand_that_is_not_an_octonion_or_a_scalar_is_declined():
    x = unit(1)
    for op in (lambda: x + 1, lambda: x - 1.5, lambda: x * "ab"):
        with pytest.raises(TypeError):
            op()
    assert (x == (0, 1, 0, 0, 0, 0, 0, 0)) is False and (x != (0, 1, 0, 0, 0, 0, 0, 0)) is True
    other = Reflected()
    assert (x + other, x - other, x * other, x == other) == ("__radd__", "__rsub__", "__rmul__", "__eq__")
    assert other.calls == [(name, x) for name in ("__radd__", "__rsub__", "__rmul__", "__eq__")]


def test_unit_is_one_shared_immutable_instance_per_index():
    for k in range(8):
        e = Octonion.unit(k)
        assert e is Octonion.unit(k) and e.coeffs == tuple(int(i == k) for i in range(8))
        with pytest.raises(AttributeError):
            e.coeffs = (0,) * 8
    assert Octonion.one() is Octonion.unit(0)
    for bad in (8, True, 1.0):
        with pytest.raises(ValueError, match=re.escape(f"basis index must be an integer in 0..7, got {bad!r}")):
            Octonion.unit(bad)


def test_octonion_vector_ops():
    a = Octonion((1, 2, 0, 0, 0, 0, 0, -1))
    b = Octonion((0, 1, 1, 0, 0, 0, 0, 3))
    assert a + b == Octonion((1, 3, 1, 0, 0, 0, 0, 2))
    assert a - b == Octonion((1, 1, -1, 0, 0, 0, 0, -4))
    assert -a == Octonion((-1, -2, 0, 0, 0, 0, 0, 1))
    assert 2 * a == a * 2 == Octonion((2, 4, 0, 0, 0, 0, 0, -2))
    assert a[1] == 2 and list(a)[7] == -1
    # equal octonions hash alike, so they key one dict entry
    assert hash(a) == hash(Octonion(list(a.coeffs))) and len({a: 1, Octonion(a): 2}) == 1


@pytest.mark.parametrize("bound", [9, 2**62 + 5, 2**1030], ids=["small", "past-2^62", "past-2^1024"])
def test_multiply_matches_table_loop_on_integers(bound):
    rng = random.Random(bound % 1000)
    for n in range(16):
        for _ in range(20):
            a, b = rand_oct(rng, bound), rand_oct(rng, bound)
            assert typed(multiply(a, b, n).coeffs) == typed(table_multiply(a, b, n))
        for i in range(8):
            for j in range(8):
                assert multiply(unit(i), unit(j), n).coeffs == table_multiply(unit(i), unit(j), n)


def test_multiply_matches_table_loop_on_mixed_int_float():
    rng = random.Random(5)
    for n in range(16):
        for _ in range(50):
            a = Octonion(rng.choice((rng.randint(-9, 9), rng.uniform(-9, 9), 0.0)) for _ in range(8))
            b = Octonion(rng.choice((rng.randint(-9, 9), rng.uniform(-9, 9), 0)) for _ in range(8))
            assert multiply(a, b, n).coeffs == table_multiply(a, b, n)


def test_integers_past_float_range_stay_exact():
    assert Octonion((2**1100,) + (0,) * 7)[0] == 2**1100
    x = Octonion((2**600,) + (0,) * 7)
    for n in range(16):
        square = multiply(x, x, n)
        assert square == Octonion((2**1200,) + (0,) * 7)
        assert norm_sq(square) == norm_sq(x) ** 2


def test_multiply_rejects_float_overflow():
    big = Octonion((1e200,) * 8)
    for n in range(16):
        with pytest.raises(ValueError):
            multiply(big, big, n)


def commuting_partners(rng, a):
    """Octonions that commute with ``a``: itself, its conjugate, a real
    multiple, and one whose imaginary part is parallel to a's."""
    r, t = rng.randint(-5, 5), rng.randint(-5, 5)
    return [a, (a[0],) + tuple(-c for c in a[1:]), tuple(r * c for c in a),
            (rng.randint(-9, 9),) + tuple(t * c for c in a[1:])]


@pytest.mark.parametrize("bound", [9, 2**62 + 5, 2**1030], ids=["small", "past-2^62", "past-2^1024"])
def test_mul_all_is_the_kernel_under_every_rule(bound):
    rng = random.Random(bound % 997)
    outcomes = set()
    for _ in range(100):
        a = tuple(rng.randint(-bound, bound) for _ in range(8))
        b = tuple(rng.randint(-bound, bound) for _ in range(8))
        # sparse operands: some of their triplet parts vanish, not all
        c = tuple(rng.choice((0, 0, 0, rng.randint(-bound, bound))) for _ in range(8))
        d = tuple(rng.choice((0, 0, 0, rng.randint(-bound, bound))) for _ in range(8))
        partners = commuting_partners(rng, a)
        commuting = [(a, p) for p in partners] + [(p, a) for p in partners]
        for x, y in [(a, b), (b, a), (c, d), (a, c)] + commuting:
            kernel = [_mul(x, y, s) for s in _SIGNS]
            uniform = all(k == kernel[0] for k in kernel)
            outcomes.add(uniform)
            value = _mul_all(x, y)
            # one tuple exactly when all 16 kernel products are equal
            assert (type(value) is tuple) is uniform
            assert [typed(v) for v in _per_rule(value)] == [typed(k) for k in kernel]
        for x, y in commuting:
            assert type(_mul_all(x, y)) is tuple
    assert outcomes == {True, False}


IMAG = (1, -2, 0, 3, 0, 5, -1)
P = 2**70
COLLAPSE = {  # imaginary parts parallel: one product for all 16 rules
    "both-real": ((2,) + (0,) * 7, (-3,) + (0,) * 7),
    "real-right": ((4,) + IMAG, (9,) + (0,) * 7),
    "times-minus-1": ((4,) + IMAG, (-7,) + tuple(-c for c in IMAG)),
    "times-3": ((4,) + IMAG, (0,) + tuple(3 * c for c in IMAG)),
    "times-2^70": ((4,) + IMAG, (1,) + tuple(P * c for c in IMAG)),
    "other-real-part": ((P,) + IMAG, (5,) + IMAG),
    "common-factor": ((3,) + tuple(2 * c for c in IMAG), (-1,) + tuple(3 * c for c in IMAG)),
    "times-2/3": ((4,) + IMAG, (Fraction(1, 5),) + tuple(Fraction(2, 3) * c for c in IMAG)),
}
SPLIT = {  # one nonzero minor, a_1 b_2 - a_2 b_1 = 2^70
    "one-minor-past-2^64": ((5, P, 0, 0, 0, 0, 0, 0), (7, 3 * P, 1, 0, 0, 0, 0, 0)),
    "one-minor-swapped": ((7, 3 * P, 1, 0, 0, 0, 0, 0), (5, P, 0, 0, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("a, b, collapses", [(*pair, True) for pair in COLLAPSE.values()]
                         + [(*pair, False) for pair in SPLIT.values()], ids=[*COLLAPSE, *SPLIT])
def test_mul_all_collapses_exactly_on_parallel_imaginary_parts(a, b, collapses):
    kernel = [typed(_mul(a, b, s)) for s in _SIGNS]
    assert (kernel.count(kernel[0]) == 16) is collapses
    value = _mul_all(a, b)
    assert (type(value) is tuple) is collapses
    assert [typed(v) for v in _per_rule(value)] == kernel
