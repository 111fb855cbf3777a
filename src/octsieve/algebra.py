"""Octonion arithmetic under the 16 equivalent multiplication rules.

An octonion is an 8-tuple of real coefficients over the basis
{1, i1, ..., i7}.  Multiplication is fixed by seven oriented associative
triplets (the lines of the Fano plane): for an oriented triplet (l, m, n)
the units satisfy i_l i_m = i_n cyclically, together with i_k^2 = -1 and
anticommutativity of distinct imaginary units.

Flipping the orientation of triplets in a structured way produces sixteen
pairwise distinct but equivalent algebras O[0]..O[15].  The flips are
generated by four involutions T0..T3 acting on the triplet parities; an
algebra id n encodes which generators are applied to the reference rule
O[0] (bit weights: T0=8, T1=4, T2=2, T3=1).  Ids 0..7 are the left-handed
rules, 8..15 the right-handed ones.

The basis index of a product is the same in every rule: e_i e_j =
+-e_{i XOR j}, because each triplet (l, m, n) satisfies l XOR m = n.  Only
the sign depends on the rule.  It is +1 when i or j is 0 and -1 when
i = j > 0; otherwise i and j lie on one triplet, and the sign is that
triplet's reference orientation times its character in rule n:
(-1) ** popcount(n & m_t) for the triplet's 4-bit mask m_t, which is -1
if rule n flips the triplet and +1 if not.  :func:`multiply` is one
unrolled kernel over these seven characters; the table of rule n in
:func:`mul_table` is built independently, from rule n's oriented
triplets (:func:`triplet_set`).
For two integer 8-tuples, :func:`_mul_all` computes the 64 pair products
once and reads all 16 products off a rule-independent part and seven
triplet parts.  The product is the same under every rule exactly when all
seven parts are zero.  Each pair of imaginary indices lies on exactly one
triplet, so that holds exactly when every minor a_i b_j - a_j b_i
vanishes, i.e. when the imaginary parts a' and b' are parallel: the
Cauchy-Schwarz equality (a'.b')^2 == |a'|^2 |b'|^2, which is exact on
ints and is tested first.

All values here are immutable and all functions are pure.  Ints of any
size and rationals (``numbers.Rational``, such as ``Fraction``) propagate
exactly through every operation, :func:`inverse` included, so the tests
assert equality, never tolerance.  Floats must be finite.  With float
inputs every term of a product is added, zero or not, so a coefficient
whose terms all vanish can come out as 0.0 where a loop that skips zero
terms would leave the integer 0; the two are equal.
"""

from __future__ import annotations

import math
import numbers
from operator import add, itemgetter, mul, neg, sub, truediv
from typing import Iterable, Sequence

__all__ = [
    "REFERENCE_TRIPLETS",
    "GENERATOR_FLIPS",
    "NotEquivalentAlgebraError",
    "Octonion",
    "flip_vector",
    "parity_word",
    "oriented_triplets",
    "triplet_set",
    "mul_table",
    "multiply",
    "conjugate",
    "norm",
    "norm_sq",
    "inverse",
    "identify_algebra",
    "table_from_tensor",
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

# The seven triplet masks: bit b of m_t is set when generator b flips
# reference triplet t (bit weights T0=8, T1=4, T2=2, T3=1, as in an
# algebra id).  Rule n flips triplet t when popcount(n & m_t) is odd.
_TRIPLET_MASKS: tuple[int, ...] = (4, 6, 5, 7, 10, 9, 11)


def _character(j: int, k: int) -> int:
    """The characters of Z2^4: (-1) ** popcount(j & k)."""
    return -1 if bin(j & k).count("1") % 2 else 1


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


class Octonion:
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
        for c in cs:
            if type(c) is int:
                continue  # exact, and finite at any size
            if isinstance(c, float):
                if not math.isfinite(c):
                    raise ValueError(f"coefficients must be finite, got {c!r}")
            elif not isinstance(c, numbers.Rational) or isinstance(c, bool):
                raise TypeError(f"coefficients must be real numbers, got {c!r}")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Octonion is immutable")

    @classmethod
    def zero(cls) -> "Octonion":
        return cls((0,) * 8)

    @classmethod
    def one(cls) -> "Octonion":
        return cls.unit(0)

    @classmethod
    def unit(cls, k: int) -> "Octonion":
        """Basis element e_k, k an int in 0..7: the real unit for k=0, else i_k."""
        _check_int(k, "basis index", 0, 7)
        return cls(tuple(1 if i == k else 0 for i in range(8)))

    @classmethod
    def real(cls, value: float) -> "Octonion":
        return cls((value, 0, 0, 0, 0, 0, 0, 0))

    @property
    def real_part(self) -> float:
        return self.coeffs[0]

    @property
    def imag_parts(self) -> tuple[float, ...]:
        return self.coeffs[1:]

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
        if not isinstance(scalar, (numbers.Rational, float)):
            return NotImplemented
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


def flip_vector(mask: int) -> tuple[int, ...]:
    """Seven parity-flip flags of the generators selected by ``mask`` (bit
    weights T0=8, T1=4, T2=2, T3=1): flag t is 1 where the character of
    triplet mask m_t is -1 on ``mask``, i.e. popcount(mask & m_t) is odd."""
    _check_algebra_id(mask)
    return tuple(int(_character(mask, m) < 0) for m in _TRIPLET_MASKS)


# Parity-flip patterns of the four generators, one flag per reference
# triplet (1 = swap orientation).  T0 flips three triplets and exchanges
# chirality; T1..T3 flip four triplets each and preserve chirality.
# Keyed by the generator's bit weight in an algebra id.
GENERATOR_FLIPS: dict[int, tuple[int, ...]] = {bit: flip_vector(bit) for bit in (8, 4, 2, 1)}


def parity_word(n: int) -> str:
    """Orientation of each reference triplet in rule n, as '+'/'-' chars."""
    return "".join("-" if f else "+" for f in flip_vector(n))


def _flips_from_word(word: str) -> tuple[int, ...]:
    if len(word) != 7 or any(c not in "+-" for c in word):
        raise ValueError(f"parity word must be 7 chars of '+'/'-', got {word!r}")
    return tuple(1 if c == "-" else 0 for c in word)


def oriented_triplets(word: str) -> TripletSet:
    """Reference triplets reoriented per a parity word.

    A '-' triplet is written with its last two indices transposed, the
    canonical odd-permutation representative.
    """
    out = []
    for flag, (l, m, n) in zip(_flips_from_word(word), REFERENCE_TRIPLETS):
        out.append((l, n, m) if flag else (l, m, n))
    return tuple(out)


def triplet_set(n: int) -> tuple[TripletSet, str]:
    """Oriented triplets and parity word of rule n (0..15)."""
    word = parity_word(n)
    return oriented_triplets(word), word


def _build_table(n: int) -> MulTable:
    # 1 e_k = e_k 1 = e_k and i_k^2 = -1; the triplets overwrite every
    # other (-1, 0), as each pair of distinct imaginary units lies on one
    entries: list[list[TableEntry]] = [[(1, k) for k in range(8)]]
    entries += [[(1, k)] + [(-1, 0)] * 7 for k in range(1, 8)]
    for l, m, k in triplet_set(n)[0]:  # i_l i_m = i_k cyclically in rule n
        for x, y, z in ((l, m, k), (m, k, l), (k, l, m)):
            entries[x][y], entries[y][x] = (1, z), (-1, z)
    return tuple(tuple(row) for row in entries)


_TABLES: tuple[MulTable, ...] = tuple(_build_table(n) for n in range(16))


def mul_table(n: int) -> MulTable:
    """The 8x8 signed basis table of rule n: table[i][j] = (sign, k) with
    e_i e_j = sign * e_k."""
    return _TABLES[_check_algebra_id(n)]


# The seven triplet characters of each rule: -1 where rule n flips the
# reference triplet, else +1.
_SIGNS: tuple[tuple[int, ...], ...] = tuple(
    tuple(_character(n, m) for m in _TRIPLET_MASKS) for n in range(16)
)


def _signs(n: int) -> tuple[int, ...]:
    """The triplet characters of rule n, for :func:`_mul`."""
    return _SIGNS[_check_algebra_id(n)]


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


# The three reference triplets through each imaginary index k = 1..7: the
# triplet's index t and the cyclic pair (i, j) with e_i e_j = +e_k in rule 0.
_THROUGH: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(
    tuple((t, tr[tr.index(k) - 2], tr[tr.index(k) - 1])
          for t, tr in enumerate(REFERENCE_TRIPLETS) if k in tr)
    for k in range(1, 8)
)

# Rule n's product, read off the 57 values of :func:`_mul_all`: the real
# coefficient, then for each k the 8 sign combinations of its three
# triplet parts; rule n takes combination 4*[s_t1 < 0] + 2*[s_t2 < 0] +
# [s_t3 < 0] of its characters s = _SIGNS[n].
_PICKS = tuple(
    itemgetter(0, *(8 * k - 7 + 4 * (s[t1] < 0) + 2 * (s[t2] < 0) + (s[t3] < 0)
                    for k, ((t1, _, _), (t2, _, _), (t3, _, _)) in enumerate(_THROUGH, 1)))
    for s in _SIGNS
)


def _mul_all(a: tuple, b: tuple) -> tuple | list[tuple]:
    """Products of two 8-tuples of ints or rationals under all 16 rules.

    Output k > 0 of rule n is c + s_t1*x + s_t2*y + s_t3*z: c holds the
    terms with a real factor, and x, y, z the terms of the three triplets
    t through k, each a_i*b_j - a_j*b_i for the cyclic pair (i, j).  The
    real output is the same in every rule.  Each of the 21 minors
    a_i*b_j - a_j*b_i is one triplet part, and by Lagrange's identity
    their squares sum to |a'|^2 |b'|^2 - (a'.b')^2 for the imaginary parts
    a', b'.  So when a' and b' are parallel (Cauchy-Schwarz equality,
    exact here) every part is zero and the product, the same under
    every rule, comes back as one tuple from its real and c terms alone.
    Otherwise the 64 pair products are computed once and the 16 products
    come back as a list, entry n under rule n.  Exact sums do not depend on
    their order, so every value equals :func:`_mul`'s (in type too, on ints).
    """
    a0, b0 = a[0], b[0]
    ai, bi = a[1:], b[1:]
    dot = sum(map(mul, ai, bi))
    if dot * dot == sum(map(mul, ai, ai)) * sum(map(mul, bi, bi)):
        return (a0 * b0 - dot, *[a0 * y + x * b0 for x, y in zip(ai, bi)])
    values = [a0 * b0 - dot]
    for k, ((_, i1, j1), (_, i2, j2), (_, i3, j3)) in enumerate(_THROUGH, 1):
        c = a0 * b[k] + a[k] * b0
        x = a[i1] * b[j1] - a[j1] * b[i1]
        y = a[i2] * b[j2] - a[j2] * b[i2]
        z = a[i3] * b[j3] - a[j3] * b[i3]
        p, q = c + x, c - x
        pp, pm, qp, qm = p + y, p - y, q + y, q - y
        values += (pp + z, pp - z, pm + z, pm - z, qp + z, qp - z, qm + z, qm - z)
    return [pick(values) for pick in _PICKS]


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
    """Euclidean length of the coefficient 8-tuple (the multiplicative norm)."""
    return math.sqrt(norm_sq(a))


def inverse(a: Octonion, n: int) -> Octonion:
    """Multiplicative inverse conj(a)/|a|^2, the same for every rule n;
    exact (``Fraction`` coefficients) unless ``a`` has a float one."""
    _check_algebra_id(n)
    ns = norm_sq(a)
    if ns == 0:
        raise ZeroDivisionError("the zero octonion has no inverse")
    from fractions import Fraction  # not at package import: it pulls in decimal
    divide = truediv if isinstance(ns, float) else Fraction
    return Octonion(divide(c, ns) for c in conjugate(a).coeffs)


def _check_table_shape(table) -> MulTable:
    rows = tuple(tuple(row) for row in table)
    if len(rows) != 8 or any(len(row) != 8 for row in rows):
        raise ValueError("multiplication table must be 8x8")
    for row in rows:
        for entry in row:
            if (
                not isinstance(entry, tuple)
                or len(entry) != 2
                or entry[0] not in (1, -1)
                or entry[1] not in range(8)
            ):
                raise ValueError(f"table entries must be (sign, index 0..7), got {entry!r}")
    return rows


def identify_algebra(table) -> int:
    """The unique rule id whose table equals ``table``.

    Raises NotEquivalentAlgebraError when the table is none of the 16.
    """
    rows = _check_table_shape(table)
    for n in range(16):
        if rows == _TABLES[n]:
            return n
    raise NotEquivalentAlgebraError("table does not match any of the 16 equivalent rules")


def table_from_tensor(tensor: Sequence[Sequence[Sequence[float]]]) -> MulTable:
    """Collapse an 8x8x8 structure-constant tensor to a signed basis table.

    tensor[i][j][k] is the coefficient of e_k in e_i e_j.  Each product of
    basis elements must land on exactly one basis element with coefficient
    +1 or -1; anything else is rejected.
    """
    if len(tensor) != 8 or any(len(plane) != 8 for plane in tensor):
        raise ValueError("tensor must be 8x8x8")
    entries: list[list[TableEntry]] = []
    for i in range(8):
        row: list[TableEntry] = []
        for j in range(8):
            comps = tensor[i][j]
            if len(comps) != 8:
                raise ValueError("tensor must be 8x8x8")
            support = [(k, c) for k, c in enumerate(comps) if c != 0]
            if len(support) != 1 or support[0][1] not in (1, -1):
                raise ValueError(
                    f"entry ({i},{j}) is not a signed basis element: {list(comps)!r}"
                )
            k, c = support[0]
            row.append((int(c), k))
        entries.append(row)
    return tuple(tuple(row) for row in entries)
