"""Group structure of the parity automorphisms and their orbit."""

import pytest

from octsieve.algebra import GENERATOR_FLIPS, triplet_set
from octsieve.automorphisms import (
    IDENTITY,
    T0,
    T1,
    T2,
    T3,
    Automorphism,
    chirality,
    compose,
    fano_lines,
    orbit,
)


def test_generator_flip_patterns():
    assert T0.flip_pattern == (0, 0, 0, 0, 1, 1, 1)
    assert T1.flip_pattern == (1, 1, 1, 1, 0, 0, 0)
    assert T2.flip_pattern == (0, 1, 0, 1, 1, 0, 1)
    assert T3.flip_pattern == (0, 0, 1, 1, 0, 1, 1)
    assert sum(T0.flip_pattern) == 3
    for gen in (T1, T2, T3):
        assert sum(gen.flip_pattern) == 4


def test_flip_pattern_composition():
    assert IDENTITY.flip_pattern == (0,) * 7
    assert (T2 * T3).flip_pattern == (0, 1, 1, 0, 1, 1, 0)


def test_generator_flips_match_module_data():
    assert GENERATOR_FLIPS[8] == T0.flip_pattern
    assert GENERATOR_FLIPS[4] == T1.flip_pattern
    assert GENERATOR_FLIPS[2] == T2.flip_pattern
    assert GENERATOR_FLIPS[1] == T3.flip_pattern


def test_compose_is_xor():
    t1t2 = T1 * T2
    t1t3 = T1 * T3
    assert compose(t1t2, t1t3) == T2 * T3
    for mask in range(16):
        a = Automorphism(mask)
        assert a * a == IDENTITY
        assert IDENTITY * a == a


def test_group_has_16_involutions():
    elements = {Automorphism(m) for m in range(16)}
    assert len(elements) == 16
    for a in elements:
        assert (a * a) == IDENTITY
        for b in elements:
            assert (a * b) in elements


def test_apply_matches_explicit_table():
    assert T3.apply(triplet_set(0)) == triplet_set(1)
    for n in range(8):
        assert T0.apply(triplet_set(n)) == triplet_set(n + 8)


def test_apply_is_involutive():
    for mask in range(16):
        a = Automorphism(mask)
        for n in range(16):
            t = triplet_set(n)
            assert a.apply(a.apply(t)) == t


def test_apply_rejects_foreign_parity_word():
    with pytest.raises(ValueError):
        T1.apply((triplet_set(0)[0], "+++++-+"))
    with pytest.raises(ValueError):  # a known word with triplets that are not its rule's
        T1.apply(((), "+++++++"))


def test_orbit_entries():
    entries = orbit()
    assert len(entries) == 16
    assert entries[0].automorphism == IDENTITY
    assert entries[0].parity_word == "+++++++"
    assert entries[5].automorphism.word == "T1*T3"
    assert entries[5].parity_word == "--+++--"
    words = [e.parity_word for e in entries]
    assert len(set(words)) == 16  # free and transitive action


def test_generator_words():
    assert IDENTITY.word == "id"
    assert T0.word == "T0"
    assert Automorphism(12).word == "T0*T1"
    assert Automorphism(15).word == "T0*T1*T2*T3"


def test_fano_lines():
    lines = fano_lines()
    assert len(lines) == 7
    assert frozenset((T1, T2, T1 * T2)) in lines
    # incidence: each of the 7 elements lies on exactly 3 lines
    for mask in range(1, 8):
        element = Automorphism(mask)
        assert sum(element in line for line in lines) == 3
    # closure: the product of two elements on a line is the third
    for line in lines:
        a, b, c = sorted(line)
        assert a * b == c and b * c == a and a * c == b


def test_chirality():
    assert chirality(0) == "left"
    assert chirality(8) == "right"
    for n in range(16):
        assert chirality(n) != chirality(n ^ 8)


def test_flip_signatures_pairwise_distinct():
    patterns = [GENERATOR_FLIPS[bit] for bit in (8, 4, 2, 1)]
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


def test_invalid_masks():
    with pytest.raises(ValueError):
        Automorphism(16)
    with pytest.raises(ValueError):
        Automorphism(-1)
    with pytest.raises(ValueError):
        chirality(16)
