"""The Z2^4 group of parity automorphisms acting on the 16 rules.

The four generators T0..T3 flip fixed subsets of the seven triplet
parities; composition is XOR of masks, so every element is an involution
and the group is Z2 x Z2 x Z2 x Z2.  Masks use the same bit weights as
algebra ids (T0=8, T1=4, T2=2, T3=1), which makes the orbit action plain
arithmetic: applying mask m to rule n lands on rule n XOR m.

The seven non-identity elements generated by {T1, T2, T3} form a Fano
plane: three elements per line, the product of any two on a line giving
the third.  T0 alone exchanges the left-handed rules (ids 0..7) with the
right-handed ones (ids 8..15).
"""

from __future__ import annotations

from collections import namedtuple
from functools import total_ordering

from .algebra import TripletSet, _check_algebra_id, _check_int, _Record, flip_vector, parity_word, triplet_set

__all__ = [
    "Automorphism",
    "T0",
    "T1",
    "T2",
    "T3",
    "IDENTITY",
    "compose",
    "orbit",
    "OrbitEntry",
    "fano_lines",
    "chirality",
]

_GENERATOR_NAMES = ((8, "T0"), (4, "T1"), (2, "T2"), (1, "T3"))


@total_ordering
class Automorphism(_Record):
    """An element of the parity group, identified by its 4-bit mask (an int
    in 0..15); automorphisms are ordered by mask."""

    __slots__ = __match_args__ = ("mask",)

    def __init__(self, mask: int):
        object.__setattr__(self, "mask", _check_int(mask, "mask", 0, 15))

    def __lt__(self, other):
        return self.mask < other.mask if type(other) is Automorphism else NotImplemented

    @property
    def flip_pattern(self) -> tuple[int, ...]:
        """Which of the seven triplet parities this element swaps."""
        return flip_vector(self.mask)

    @property
    def word(self) -> str:
        """Generator word such as 'T1*T3'; 'id' for the identity."""
        parts = [name for bit, name in _GENERATOR_NAMES if self.mask & bit]
        return "*".join(parts) if parts else "id"

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        if not isinstance(other, Automorphism):
            return NotImplemented
        return Automorphism(self.mask ^ other.mask)

    def apply(self, t: tuple[TripletSet, str]) -> tuple[TripletSet, str]:
        """Act on an orbit element: the pair (oriented triplets, parity word) of ``triplet_set(n)``."""
        n = next((n for n in range(16) if triplet_set(n) == t), None)
        if n is None:
            raise ValueError(f"{t!r} is not one of the 16 orbit elements")
        return triplet_set(n ^ self.mask)

    def __repr__(self) -> str:
        return f"Automorphism({self.mask})  # {self.word}"


T0 = Automorphism(8)
T1 = Automorphism(4)
T2 = Automorphism(2)
T3 = Automorphism(1)
IDENTITY = Automorphism(0)


def compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """Group product; XOR of masks."""
    return a * b


OrbitEntry = namedtuple("OrbitEntry", ("algebra", "automorphism", "parity_word"))


def orbit() -> list[OrbitEntry]:
    """The full orbit of the reference rule, in algebra-id order."""
    return [OrbitEntry(n, Automorphism(n), parity_word(n)) for n in range(16)]


def fano_lines() -> tuple[frozenset[Automorphism], ...]:
    """The 7 lines of the Fano plane over the non-identity elements of
    <T1, T2, T3>: unordered triples {a, b, a*b}, listed by ascending masks."""
    return tuple(frozenset(map(Automorphism, (a, b, a ^ b)))
                 for a in range(1, 8) for b in range(a + 1, 8) if b < a ^ b)


def chirality(n: int) -> str:
    """'left' for rules 0..7, 'right' for 8..15 (the T0 bit)."""
    return "right" if _check_algebra_id(n) & 8 else "left"
