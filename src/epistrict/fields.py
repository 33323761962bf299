"""Exact scalars: prime fields Z_d and the rational field.

Scalars are plain Python objects — ``int`` for prime-field elements (canonical range
``0..d-1``) and ``fractions.Fraction`` for rationals (lowest terms, positive
denominator) — so vectors and matrices stay ordinary tuples.  Arithmetic is Python's
``+``, ``-`` and ``*`` on canonical scalars, which is exact ring arithmetic in both
cases; a result becomes canonical again through one :meth:`Field.reduce` call (``% d``
over Z_d, ``Fraction`` over Q).  A :class:`Field` supplies only what differs between
the two: ``element`` (coercion of outside values), ``reduce``, ``inv``, ``zero``,
``one`` and, for Z_d, ``elements`` and ``modulus``.

Over Q the row kernels of ``linalg`` (elimination, pivot clearing, dot products) do
not compute one ``Fraction`` at a time: they carry each row as integers over one
common denominator and build ``Fraction``s once, for the row they return.  So every
scalar that leaves them is still a canonical ``Fraction``.

No floats anywhere in this module; equality of canonical scalars is meaningful.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


class SizeCapExceeded(Exception):
    """An enumeration, operator build or modulus would exceed a fixed size cap."""

    def __init__(self, message: str, required, limit: int):
        super().__init__(f"{message}: needs {required}, cap is {limit}")
        self.required = required
        self.cap = limit


def _int_text(x: int) -> str:
    """``x`` in decimal when it has at most 40 digits, else by its sign and digit
    count, so a message that names a refused int stays short whatever its size."""
    if -10 ** 40 < x < 10 ** 40:
        return str(x)
    a = abs(x)
    k = (a.bit_length() - 1) * 30102 // 100000  # 0.30102 < log10(2), so 10^k <= a
    while 10 ** (k + 1) <= a:
        k += 1
    return f"{'a negative' if x < 0 else 'an'} int of {k + 1} digits"


#: Miller-Rabin on the first twelve prime bases decides primality exactly below this
#: bound (the smallest strong pseudoprime to all of them).
MAX_MODULUS = 318_665_857_834_031_151_167_461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(d: int) -> bool:
    """Deterministic Miller-Rabin; exact for every ``d < MAX_MODULUS``."""
    if d < 2 or any(d % p == 0 for p in _WITNESSES):
        return d in _WITNESSES
    twos = ((d - 1) & (1 - d)).bit_length() - 1  # d - 1 = odd * 2^twos
    for a in _WITNESSES:
        # d is a strong probable prime to base a iff a^odd = 1 or some squaring of it
        # before the last reaches -1.
        chain = [pow(a, (d - 1) >> twos << k, d) for k in range(twos)]
        if chain[0] != 1 and d - 1 not in chain:
            return False
    return True


class Field:
    """Common interface for the two exact scalar domains."""

    is_finite: bool

    def element(self, value) -> Scalar:
        """Coerce ``value`` into canonical form, validating its type."""
        raise NotImplementedError

    def reduce(self, x: Scalar) -> Scalar:
        """Canonical form of the result of ``+ - *`` on canonical scalars."""
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    @property
    def zero(self) -> Scalar:
        raise NotImplementedError

    @property
    def one(self) -> Scalar:
        raise NotImplementedError

    def elements(self):
        """Iterate every field element (finite fields only)."""
        raise NotImplementedError


class PrimeField(Field):
    """The field Z_d for a prime modulus d, with elements ``int`` in ``0..d-1``."""

    is_finite = True

    def __init__(self, modulus: int):
        # A float or bool modulus would compare and hash equal to the int one while
        # its elements came out as floats; numpy integers become plain ints.
        if not isinstance(modulus, numbers.Integral) or isinstance(modulus, bool):
            raise TypeError(f"modulus must be an int, got {modulus!r}")
        modulus = int(modulus)
        if modulus >= MAX_MODULUS:
            raise SizeCapExceeded("prime modulus", _int_text(modulus), MAX_MODULUS)
        if not _is_prime(modulus):
            raise ValueError(f"modulus must be prime, got {_int_text(modulus)}")
        self.modulus = modulus

    def element(self, value) -> int:
        if type(value) is int:  # fast path: already the canonical representation
            return value % self.modulus
        if isinstance(value, Fraction):
            if value.denominator == 1:
                value = value.numerator
            else:
                # A reduced fraction can still land in Z_d when d does not divide
                # the denominator; convenient when loading scenario files.
                if value.denominator % self.modulus == 0:
                    raise ValueError(f"{value} has no value in Z_{self.modulus}: "
                                     f"its denominator is divisible by {self.modulus}")
                return value.numerator * self.inv(value.denominator) % self.modulus
        # Any exact integer type (numpy's among them) is accepted; bools are not.
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"prime-field element must be an int, got {value!r}")
        return int(value) % self.modulus

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def inv(self, a: int) -> int:
        a %= self.modulus
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Z_%d" % self.modulus)
        return pow(a, self.modulus - 2, self.modulus)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def elements(self):
        return range(self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"


class RationalField(Field):
    """The rational numbers, with elements ``fractions.Fraction``.

    Fraction normalizes to lowest terms with a positive denominator on construction,
    which is exactly the canonical representative the rest of the package assumes,
    so a Fraction passes through ``element`` and ``reduce`` unchanged.
    """

    is_finite = False
    zero = Fraction(0)
    one = Fraction(1)

    def element(self, value) -> Fraction:
        if isinstance(value, float):
            raise TypeError("floats are not exact; pass int, Fraction or 'num/den' str")
        if isinstance(value, bool):
            raise TypeError(f"rational element must be an int, Fraction or 'num/den' "
                            f"str, got {value!r}")
        return self.reduce(value)

    def reduce(self, x) -> Fraction:
        return x if type(x) is Fraction else Fraction(x)

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def elements(self):
        raise ValueError("the rational field is infinite; cannot enumerate")

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "RationalField()"


#: Shared instance — all rational-field values interoperate through this object.
RATIONALS = RationalField()
