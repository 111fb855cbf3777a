"""Octonion arithmetic under the 16 equivalent multiplication rules.

An octonion is an 8-tuple of real coefficients over the basis
{1, i1, ..., i7}.  Multiplication is fixed by seven oriented associative
triplets (the lines of the Fano plane): for an oriented triplet (l, m, n)
the units satisfy i_l i_m = i_n cyclically, together with i_k^2 = -1 and
anticommutativity of distinct imaginary units.

The sixteen rules O[0]..O[15] are one algebra written in sixteen bases.
Each unit e_i has a key kappa_i in Z2^4 (``_KEYS``), and rule n is the
reference rule O[0] in the basis phi_n: e_i -> chi(kappa_i, n) e_i, where
chi(k, n) = (-1) ** popcount(k & n) are the characters of Z2^4.  So a
triplet t = {a, b, c} has the 4-bit mask m_t = kappa_a ^ kappa_b ^ kappa_c,
and rule n flips its orientation exactly when chi(m_t, n) = -1.  The bits
of n are four generators T0=8, T1=4, T2=2, T3=1 acting on the triplet
parities: T0 flips three triplets and exchanges handedness, T1..T3 flip
four each and keep it; ids 0..7 are the left-handed rules, 8..15 the
right-handed ones.
The parity group acts on rule ids as n -> n ^ m, and its Fano lines
{a, b, a ^ b} over 1..7 are the seven ``REFERENCE_TRIPLETS``.

The seven characters chi(m_t, n) of rule n, ``_SIGNS[n]``, are its
orientation, stated once: :func:`flip_vector`, :func:`parity_word` and
:func:`triplet_set` read them, and :func:`identify_algebra` finds the row
equal to a table's seven reference signs.
The basis index of a product is the same in every rule: e_i e_j =
+-e_{i XOR j}, because each triplet (l, m, n) satisfies l XOR m = n.  The
sign is +1 when i or j is 0, -1 when i = j > 0, and otherwise the
reference orientation of the triplet t holding i and j times chi(m_t, n).
:func:`multiply` is one unrolled kernel over these seven characters; the
table of rule n in :func:`mul_table` is built independently, from rule
n's oriented triplets (:func:`triplet_set`).
For two 8-tuples of ints or rationals, :func:`_mul_all` gives the product
under all 16 rules as its Walsh spectrum: under rule n it is
P0 + sum_t chi(m_t, n) P_t, a rule-independent part and seven triplet
parts, so P_t sits at key m_t.  The product is the same under every rule
exactly when all seven parts are zero.  Each pair of imaginary indices
lies on exactly one triplet, so that holds exactly when every minor
a_i b_j - a_j b_i vanishes, i.e. when the imaginary parts a' and b' are
parallel: the Cauchy-Schwarz equality (a'.b')^2 == |a'|^2 |b'|^2, which is
exact on ints and is tested first.  Each part is written once:
:func:`_real_part` gives a'.b' and P0, unrolled over the coefficients,
and :func:`_add_parts` adds the seven triplet parts, shifted by a key,
into mutable rows.  :func:`_mul_all` tests for collapse with that a'.b',
returns that P0 when the test holds, and otherwise starts its spectrum
from it; :func:`_add_product` adds both into rows, which accumulates the
sieve's products of spectra.

All values here are immutable and all functions but :func:`_add_parts`
and :func:`_add_product`, which add into the rows they are given, are
pure.  Ints of any size and rationals (``numbers.Rational``, such as
``Fraction``) propagate exactly through every operation, so the tests
assert equality, never tolerance; an :class:`Octonion` holds any other
``numbers.Integral``, such as numpy's int64, as the int it is.
Floats must be finite.  :func:`_rational` reads a checked coefficient as
the rational it is, and :func:`_exact` a tuple of them, for every exact
route in the package: the sieve's all-rules pass, compiled constants, the
derivations, and :func:`norm` and :func:`inverse`, which sum |a|^2 exactly
whatever the coefficients are.  With float inputs every term of a product
is added, zero or not, so a coefficient whose terms all vanish can come
out as 0.0 where a loop that skips zero terms would leave the integer 0;
the two are equal.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from operator import add, mul, neg, sub

__all__ = [
    "REFERENCE_TRIPLETS",
    "NotEquivalentAlgebraError",
    "Octonion",
    "flip_vector",
    "parity_word",
    "generator_word",
    "triplet_set",
    "mul_table",
    "multiply",
    "conjugate",
    "norm",
    "norm_sq",
    "inverse",
    "identify_algebra",
]

# The reference rule O[0]: seven oriented triplets covering each pair of
# distinct indices 1..7 exactly once.
REFERENCE_TRIPLETS: tuple[tuple[int, int, int], ...] = (
    (1, 2, 3),
    (7, 6, 1),
    (5, 7, 2),
    (6, 5, 3),
    (1, 4, 5),
    (2, 4, 6),
    (3, 4, 7),
)

# The one statement of Z2^4: kappa_i is the key of unit e_i, and rule n is
# rule 0 in the basis phi_n: e_i -> (-1) ** popcount(n & kappa_i) e_i.
# e1, e2 and e4 generate the algebra; with their keys fixed at 0, the
# triplet masks below determine the other four.
_KEYS: tuple[int, ...] = (0, 0, 0, 4, 0, 10, 9, 15)

# The seven triplet masks m_t = kappa_a ^ kappa_b ^ kappa_c, in the bit
# weights of an algebra id (T0=8, T1=4, T2=2, T3=1): rule n flips reference
# triplet t when popcount(n & m_t) is odd.
_TRIPLET_MASKS: tuple[int, ...] = tuple(_KEYS[a] ^ _KEYS[b] ^ _KEYS[c] for a, b, c in REFERENCE_TRIPLETS)


def _character(j: int, k: int) -> int:
    """The characters of Z2^4: (-1) ** popcount(j & k)."""
    return -1 if bin(j & k).count("1") % 2 else 1


# The orientation of each rule, and its only statement: row n holds the seven
# triplet characters chi(m_t, n), -1 where rule n flips reference triplet t.
_SIGNS: tuple[tuple[int, ...], ...] = tuple(tuple(_character(n, m) for m in _TRIPLET_MASKS) for n in range(16))


# Table entry: (sign, basis index), index 0 being the real unit.
TableEntry = tuple[int, int]
MulTable = tuple[tuple[TableEntry, ...], ...]
TripletSet = tuple[tuple[int, int, int], ...]


class NotEquivalentAlgebraError(ValueError):
    """A multiplication table does not match any of the 16 rules."""


def _check_int(value: int, what: str, low: int, high: int | None = None) -> int:
    """``value`` if it is an int, not a bool, in low..high (no upper bound if
    ``high`` is None); anything else, 7.0 too, is a ``ValueError`` naming ``what``."""
    if isinstance(value, int) and not isinstance(value, bool) and low <= value and (high is None or value <= high):
        return value
    bounds = f">= {low}" if high is None else f"in {low}..{high}"
    raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")


def _check_algebra_id(n: int) -> int:
    return _check_int(n, "algebra id", 0, 15)


class _Record:
    """An immutable value: a subclass names its fields, in constructor
    order, in ``__slots__`` and sets each once in its ``__init__`` through
    ``object.__setattr__``.  Records of one class compare and hash by their
    field values, records of two classes never compare equal, and the repr
    is ``Name(field=value, ...)``.  Assignment and deletion raise
    ``AttributeError``; copying and pickling rebuild through the
    constructor, passing each field by keyword."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), dict(zip(self.__slots__, self._fields())))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"


def _rebuild(cls: type, fields: dict) -> _Record:
    """A copied or unpickled record, built and checked by its constructor."""
    return cls(**fields)


class Octonion(_Record):
    """An immutable 8-tuple of real coefficients (a0, ..., a7).

    a0 is the real part; a1..a7 sit on the imaginary units i1..i7.  The
    class only carries the vector-space structure (addition, scalar
    scaling); products depend on the choice of multiplication rule and go
    through :func:`multiply`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        cs = coeffs if type(coeffs) is tuple else tuple(coeffs)
        if len(cs) != 8:
            raise ValueError(f"an octonion needs 8 coefficients, got {len(cs)}")
        wide = False
        for c in cs:
            if type(c) is int:
                continue  # exact, and finite at any size
            if isinstance(c, float):
                if not math.isfinite(c):
                    raise ValueError(f"coefficients must be finite, got {c!r}")
            elif not isinstance(c, numbers.Rational) or isinstance(c, bool):
                raise TypeError(f"coefficients must be real numbers, got {c!r}")
            elif getattr(c, "denominator", 1) == 1 and isinstance(c, numbers.Integral):
                wide = True  # denominator first: a Fraction skips the slower ABC check
        if wide:  # an integer type that wraps around, such as numpy's int64: hold the int it is
            cs = tuple(int(c) if isinstance(c, numbers.Integral) else c for c in cs)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _from_columns(cls, cs: tuple) -> tuple["Octonion", ...]:
        """The n = len(cs) / 8 octonions whose coefficients ``cs`` holds
        column by column: octonion k is cs[k::n].  ``__init__``'s check runs
        once over all of them when every one is a finite float.  Anything
        else builds each octonion by ``cls(cs[k::n])``, so its errors, and
        their order, are the constructor's."""
        n = len(cs) // 8
        # a float sum is finite only when every term is
        if set(map(type, cs)) != {float} or not math.isfinite(sum(cs)):
            return tuple(cls(cs[k::n]) for k in range(n))
        new, set_coeffs = object.__new__, cls.coeffs.__set__
        out = []
        for k in range(n):
            o = new(cls)
            set_coeffs(o, cs[k::n])
            out.append(o)
        return tuple(out)

    @classmethod
    def zero(cls) -> "Octonion":
        return cls((0,) * 8)

    @classmethod
    def one(cls) -> "Octonion":
        return cls.unit(0)

    @classmethod
    def unit(cls, k: int) -> "Octonion":
        """Basis element e_k, k an int in 0..7: the real unit for k=0, else i_k;
        one shared immutable instance per k."""
        return _UNITS[_check_int(k, "basis index", 0, 7)]

    @classmethod
    def real(cls, value: float) -> "Octonion":
        return cls((value, 0, 0, 0, 0, 0, 0, 0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return NotImplemented
        return Octonion(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        if not isinstance(other, Octonion):
            return NotImplemented
        return Octonion(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "Octonion":
        return Octonion(tuple(map(neg, self.coeffs)))

    def __mul__(self, scalar):
        # Scalar scaling only; octonion products need an algebra id.
        if isinstance(scalar, Octonion):
            raise TypeError("octonion products need a rule: use multiply(a, b, n)")
        if isinstance(scalar, bool):
            raise TypeError(f"a scalar must be a real number, got {scalar!r}")
        if not isinstance(scalar, (numbers.Rational, float)):
            return NotImplemented
        if isinstance(scalar, numbers.Integral):
            scalar = int(scalar)  # an int64 would wrap the products before __init__ reads them
        return Octonion(tuple(map(mul, (scalar,) * 8, self.coeffs)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, k: int) -> float:
        return self.coeffs[k]

    def __repr__(self) -> str:
        return f"Octonion({list(self.coeffs)!r})"


_UNITS = tuple(Octonion(tuple(1 if i == k else 0 for i in range(8))) for k in range(8))


def _rational(x):
    """A coefficient that :class:`Octonion` accepts, so finite, as the
    rational it is: an int when it is integral, as int arithmetic is many
    times faster, else a ``Fraction``."""
    if type(x) is int:
        return x
    from fractions import Fraction  # not at package import: it pulls in decimal

    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def _exact(coeffs: tuple) -> tuple:
    """``coeffs`` itself when every coefficient is an int, else each read
    by :func:`_rational`."""
    return coeffs if all(type(c) is int for c in coeffs) else tuple(map(_rational, coeffs))


def _signs(n: int) -> tuple[int, ...]:
    """The triplet characters of rule n, ``_SIGNS[n]``."""
    return _SIGNS[_check_algebra_id(n)]


def flip_vector(mask: int) -> tuple[int, ...]:
    """Seven parity-flip flags of the generators selected by ``mask`` (bit
    weights T0=8, T1=4, T2=2, T3=1): flag t is 1 where rule ``mask`` flips
    triplet t, i.e. popcount(mask & m_t) is odd.  A single generator's
    flags are ``flip_vector(bit)``: T0 flips three triplets and exchanges
    handedness, T1..T3 flip four each and keep it."""
    return tuple(int(s < 0) for s in _signs(mask))


def parity_word(n: int) -> str:
    """Orientation of each reference triplet in rule n, as '+'/'-' chars."""
    return "".join("-" if s < 0 else "+" for s in _signs(n))


def generator_word(n: int) -> str:
    """Rule n as a product of the generators whose bits it sets, such as
    'T1*T3' for 5; 'id' for 0."""
    n = _check_algebra_id(n)
    return "*".join(f"T{t}" for t in range(4) if n & (8 >> t)) or "id"


def triplet_set(n: int) -> tuple[TripletSet, str]:
    """Oriented triplets and parity word of rule n (0..15).  A flipped
    triplet is written with its last two indices transposed, the canonical
    odd-permutation representative."""
    triplets = tuple((l, m, k) if s > 0 else (l, k, m) for s, (l, m, k) in zip(_signs(n), REFERENCE_TRIPLETS))
    return triplets, parity_word(n)


def mul_table(n: int) -> MulTable:
    """The 8x8 signed basis table of rule n: table[i][j] = (sign, k) with
    e_i e_j = sign * e_k."""
    # 1 e_k = e_k 1 = e_k and i_k^2 = -1; the triplets overwrite every
    # other (-1, 0), as each pair of distinct imaginary units lies on one
    entries: list[list[TableEntry]] = [[(1, k) for k in range(8)]]
    entries += [[(1, k)] + [(-1, 0)] * 7 for k in range(1, 8)]
    for l, m, k in triplet_set(n)[0]:  # i_l i_m = i_k cyclically in rule n
        for x, y, z in ((l, m, k), (m, k, l), (k, l, m)):
            entries[x][y], entries[y][x] = (1, z), (-1, z)
    return tuple(tuple(row) for row in entries)


def _mul(a: tuple, b: tuple, s: tuple[int, ...]) -> tuple:
    """Product of two coefficient 8-tuples under the rule whose triplet
    characters are ``s`` (see :func:`_signs`).

    Output k is the sum over i of sign(i, i^k) * a_i * b_{i^k}, its terms
    added in ascending i.  Each term carries rule 0's sign as written and
    the factor s_t of the reference triplet t that holds i and i^k.
    """
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    s0, s1, s2, s3, s4, s5, s6 = s
    return (
        a0*b0 - a1*b1 - a2*b2 - a3*b3 - a4*b4 - a5*b5 - a6*b6 - a7*b7,
        a0*b1 + a1*b0 + s0*a2*b3 - s0*a3*b2 + s4*a4*b5 - s4*a5*b4 - s1*a6*b7 + s1*a7*b6,
        a0*b2 - s0*a1*b3 + a2*b0 + s0*a3*b1 + s5*a4*b6 + s2*a5*b7 - s5*a6*b4 - s2*a7*b5,
        a0*b3 + s0*a1*b2 - s0*a2*b1 + a3*b0 + s6*a4*b7 - s3*a5*b6 + s3*a6*b5 - s6*a7*b4,
        a0*b4 - s4*a1*b5 - s5*a2*b6 - s6*a3*b7 + a4*b0 + s4*a5*b1 + s5*a6*b2 + s6*a7*b3,
        a0*b5 + s4*a1*b4 - s2*a2*b7 + s3*a3*b6 - s4*a4*b1 + a5*b0 - s3*a6*b3 + s2*a7*b2,
        a0*b6 + s1*a1*b7 + s5*a2*b4 - s3*a3*b5 - s5*a4*b2 + s3*a5*b3 + a6*b0 - s1*a7*b1,
        a0*b7 - s1*a1*b6 + s2*a2*b5 + s6*a3*b4 - s6*a4*b3 - s2*a5*b2 + s1*a6*b1 + a7*b0,
    )


def _real_part(a: tuple, b: tuple) -> tuple:
    """a'.b' and P0 of the product of two 8-tuples of ints or rationals
    (see :func:`_add_product`), each term as the generic sums had it: the
    dot product left to right, P0 a0 b0 - a'.b' and a0 b_i + a_i b0."""
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    b0, b1, b2, b3, b4, b5, b6, b7 = b
    dot = a1*b1 + a2*b2 + a3*b3 + a4*b4 + a5*b5 + a6*b6 + a7*b7
    return dot, (a0*b0 - dot, a0*b1 + a1*b0, a0*b2 + a2*b0, a0*b3 + a3*b0,
                 a0*b4 + a4*b0, a0*b5 + a5*b0, a0*b6 + a6*b0, a0*b7 + a7*b0)


# Each triplet's mask and indices, flat for the loop in _add_parts.
_PARTS = tuple((m, i, j, k) for m, (i, j, k) in zip(_TRIPLET_MASKS, REFERENCE_TRIPLETS))


def _add_parts(rows: dict[int, list], key: int, a: tuple, b: tuple) -> None:
    """Add each nonzero triplet part P_t of the product of a and b into
    ``rows`` at key ^ m_t (see :func:`_add_product`)."""
    for m, i, j, k in _PARTS:
        x, y, z = a[j] * b[k] - a[k] * b[j], a[k] * b[i] - a[i] * b[k], a[i] * b[j] - a[j] * b[i]
        if x or y or z:
            row = rows.get(key ^ m)
            if row is None:
                row = rows[key ^ m] = [0] * 8
                row[i], row[j], row[k] = x, y, z
            else:
                row[i] += x
                row[j] += y
                row[k] += z


def _add_product(rows: dict[int, list], key: int, a: tuple, b: tuple) -> None:
    """Add the product of two 8-tuples of ints or rationals under all 16
    rules, shifted by ``key``, into ``rows``, a spectrum of mutable 8-lists:
    P0 at ``key`` unless it is zero, and each triplet part P_t at
    ``key ^ m_t`` unless its three minors are zero, a row created where
    there is none.  P0 holds the real output and the terms with a real
    factor; P_t is triplet t = (i, j, k) under rule 0: a_j b_k - a_k b_j at
    i, a_k b_i - a_i b_k at j and a_i b_j - a_j b_i at k.  Under rule n the
    product is P0 + sum_t chi(m_t, n) P_t, and exact sums do not depend on
    their order, so under each rule this is :func:`_mul`'s.  Rows that
    cancel to zero are left for the caller to drop."""
    p0 = _real_part(a, b)[1]
    if any(p0):
        row = rows.get(key)
        rows[key] = list(p0) if row is None else list(map(add, row, p0))
    _add_parts(rows, key, a, b)


def _mul_all(a: tuple, b: tuple) -> tuple | dict[int, tuple]:
    """The product of two 8-tuples of ints or rationals under all 16 rules
    (see :func:`_add_product`), as the tuple P0 when the imaginary parts are
    parallel, else as the spectrum {0: P0, m_t: P_t} without its zero
    parts.  By Lagrange's identity the squares of the 21 minors sum to
    |a'|^2 |b'|^2 - (a'.b')^2, so they all vanish exactly at Cauchy-Schwarz
    equality, which is tested first: it costs less than the minors, and
    most products in an invariant expression collapse.  The test's a'.b'
    and P0 are the spectrum's, computed once."""
    dot, p0 = _real_part(a, b)
    _, a1, a2, a3, a4, a5, a6, a7 = a
    _, b1, b2, b3, b4, b5, b6, b7 = b
    if dot * dot == (a1*a1 + a2*a2 + a3*a3 + a4*a4 + a5*a5 + a6*a6 + a7*a7) * (
            b1*b1 + b2*b2 + b3*b3 + b4*b4 + b5*b5 + b6*b6 + b7*b7):
        return p0
    rows = {0: p0} if any(p0) else {}
    _add_parts(rows, 0, a, b)
    return {k: tuple(row) for k, row in rows.items()}  # each key written once: none is zero


def multiply(a: Octonion, b: Octonion, n: int) -> Octonion:
    """Product of a and b under rule n (bilinear extension of the table)."""
    return Octonion(_mul(a.coeffs, b.coeffs, _signs(n)))


def conjugate(a: Octonion) -> Octonion:
    """Real part kept, all imaginary coefficients negated."""
    return Octonion((a.coeffs[0],) + tuple(-c for c in a.coeffs[1:]))


def norm_sq(a: Octonion) -> float:
    """Squared Euclidean norm; exact for int and rational coefficients."""
    return sum(c * c for c in a.coeffs)


def norm(a: Octonion) -> float:
    """Euclidean length of the coefficient 8-tuple (the multiplicative norm):
    the exact root of |a|^2 on the rational coefficients, rounded once to
    the nearest float, ties to even, or an ``OverflowError`` past the largest."""
    q = sum(c * c for c in _exact(a.coeffs))
    # a root of 55 bits or more; its last bit, below the rounding bit, is set when it is inexact
    e = max(0, (110 - q.numerator.bit_length() + q.denominator.bit_length()) // 2)
    x, rest = divmod(q.numerator << 2 * e, q.denominator)
    root = math.isqrt(x)
    root |= rest > 0 or root * root < x
    # round off, once and to even, the s bits past the float's 53 or below its 2^-1074 (s >= 1 for a zero root)
    s = max(root.bit_length() - 53, e - 1074, 1)
    top, low, half = root >> s, root & ((1 << s) - 1), 1 << s - 1
    return math.ldexp(top + (low > half or low == half and top & 1), s - e)


def inverse(a: Octonion, n: int) -> Octonion:
    """Multiplicative inverse conj(a)/|a|^2, the same for every rule n, as
    exact quotients (``Fraction``) of the rational coefficients."""
    _check_algebra_id(n)
    if a.is_zero():
        raise ZeroDivisionError("the zero octonion has no inverse")
    from fractions import Fraction  # not at package import: it pulls in decimal
    cs = _exact(conjugate(a).coeffs)
    q = sum(c * c for c in cs)
    return Octonion(Fraction(c, q) for c in cs)


def _check_table_shape(table) -> MulTable:
    rows = tuple(tuple(row) for row in table)
    if len(rows) != 8 or any(len(row) != 8 for row in rows):
        raise ValueError("multiplication table must be 8x8")
    for row in rows:
        for entry in row:
            # ints, not bools, as _check_int reads them: 1.0 == 1 and True == 1
            if (
                not isinstance(entry, tuple)
                or len(entry) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) for x in entry)
                or entry[0] not in (1, -1)
                or entry[1] not in range(8)
            ):
                raise ValueError(f"table entries must be (sign, index 0..7), got {entry!r}")
    return rows


def identify_algebra(table) -> int:
    """The unique rule id whose table equals ``table``.

    The signs of the seven reference products e_a e_b = +-e_c are rule n's
    characters ``_SIGNS[n]`` for at most one n, and the whole table must then
    be rule n's.  Raises NotEquivalentAlgebraError when it is none of the 16.
    """
    rows = _check_table_shape(table)
    signs = tuple(rows[a][b][0] for a, b, _ in REFERENCE_TRIPLETS)
    if signs in _SIGNS and rows == mul_table(n := _SIGNS.index(signs)):
        return n
    raise NotEquivalentAlgebraError("table does not match any of the 16 equivalent rules")

