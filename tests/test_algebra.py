"""Octonion arithmetic and the 16 multiplication tables."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from octsieve.algebra import (
    _KEYS,
    _SIGNS,
    _character,
    _mul,
    _mul_all,
    GENERATOR_FLIPS,
    NotEquivalentAlgebraError,
    Octonion,
    conjugate,
    flip_vector,
    identify_algebra,
    inverse,
    mul_table,
    multiply,
    norm,
    norm_sq,
    parity_word,
    table_from_tensor,
    triplet_set,
)

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
    t0 = (0, 0, 0, 0, 1, 1, 1)
    for n in range(8):
        xor = tuple(a ^ b for a, b in zip(flip_vector(n), flip_vector(n + 8)))
        assert xor == t0


def test_flips_and_characters_are_views_of_the_triplet_masks():
    # the generator patterns as literals, and the XOR composition that
    # flip_vector used to compute from them
    generators = {
        8: (0, 0, 0, 0, 1, 1, 1),
        4: (1, 1, 1, 1, 0, 0, 0),
        2: (0, 1, 0, 1, 1, 0, 1),
        1: (0, 0, 1, 1, 0, 1, 1),
    }
    assert GENERATOR_FLIPS == generators and list(GENERATOR_FLIPS) == [8, 4, 2, 1]
    for n in range(16):
        composed = (0,) * 7
        for bit, pattern in generators.items():
            if n & bit:
                composed = tuple(a ^ b for a, b in zip(composed, pattern))
        assert flip_vector(n) == composed
        assert _SIGNS[n] == tuple(-1 if f else 1 for f in composed)


def test_sixteen_parity_words_distinct_and_xor_closed():
    vectors = [flip_vector(n) for n in range(16)]
    assert len(set(vectors)) == 16
    pool = set(vectors)
    for a in vectors:
        for b in vectors:
            assert tuple(x ^ y for x, y in zip(a, b)) in pool


def test_invalid_algebra_id():
    for bad in (-1, 16, 3.0, "3"):
        with pytest.raises(ValueError):
            triplet_set(bad)
        with pytest.raises(ValueError):
            mul_table(bad)


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
    assert norm(Octonion((0, 3, 4, 0, 0, 0, 0, 0))) == 5
    a = Octonion((1, 1, 0, 0, 0, 0, 0, 0))
    b = Octonion((0, 1, 1, 0, 0, 0, 0, 0))
    for n in range(16):
        assert norm(multiply(a, b, n)) == 2


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
    # a float stays float: |a|^2 = 1 here, so the round trip is exact too
    half = Octonion((0.5, -0.5, 0.5, 0, 0, 0, 0.5, 0))
    assert typed(inverse(half, 3)) == typed((0.5, 0.5, -0.5, 0.0, 0.0, 0.0, -0.5, 0.0))
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


def test_identify_algebra_rejects_malformed_shapes():
    with pytest.raises(ValueError):
        identify_algebra([[(1, 0)] * 7] * 8)
    bad_entry = [list(row) for row in mul_table(0)]
    bad_entry[1][2] = (2, 3)
    with pytest.raises(ValueError):
        identify_algebra(bad_entry)


def test_table_from_tensor():
    tensor = [[[0.0] * 8 for _ in range(8)] for _ in range(8)]
    for i in range(8):
        for j in range(8):
            s, k = mul_table(9)[i][j]
            tensor[i][j][k] = float(s)
    assert identify_algebra(table_from_tensor(tensor)) == 9

    tensor[1][2] = [0, 0, 0, 0.5, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        table_from_tensor(tensor)
    tensor[1][2] = [0, 0, 0, 1, 1, 0, 0, 0]
    with pytest.raises(ValueError):
        table_from_tensor(tensor)
    with pytest.raises(ValueError, match="8x8x8"):
        table_from_tensor(tensor[:7])  # 7x8x8
    tensor[1][2] = [0, 0, 0, 1, 0, 0, 0]
    with pytest.raises(ValueError, match="8x8x8"):
        table_from_tensor(tensor)  # one entry of 7 components


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
            values = (value,) * 16 if uniform else value
            assert [typed(v) for v in values] == [typed(k) for k in kernel]
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
    assert [typed(v) for v in ((value,) * 16 if collapses else value)] == kernel
