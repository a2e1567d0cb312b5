"""Exact arithmetic in Q and quadratic extensions Q(sqrt(d)).

Elements are a + b*sqrt(d) with Fraction coefficients.  Field descriptors
declare whether -1 is a sum of two squares, checked against d for a
quadratic field; where the declaration is negative the table carries an
explicit witness pair that is verified exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, PreconditionError

RationalLike = int | Fraction


def _is_squarefree(d: int) -> bool:
    """Exact in O(|d|^(1/3)) trial divisions.

    Once every prime p with p^3 <= n is divided out, the cofactor has at
    most two prime factors, so it has a square factor iff it is a square.
    """
    n = abs(d)
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1
    return n < 2 or math.isqrt(n) ** 2 != n


_MAX_RADICAND = 10**18


def _require_field_d(d: int) -> None:
    """Q(sqrt d) is a quadratic field exactly for squarefree d != 0, 1.

    |d| is bounded so that the squarefree test, about |d|^(1/3) trial
    divisions, stays well under a second (``radicand-too-large``).
    """
    if abs(d) > _MAX_RADICAND:
        raise PreconditionError("radicand-too-large", f"|d| must be at most 10^18, got {d}")
    if d in (0, 1) or not _is_squarefree(d):
        raise ValueError(f"d must be squarefree and != 0, 1, got {d}")


@dataclass(frozen=True, eq=False)
class QuadElement:
    """a + b*sqrt(d) with exact rational a, b.

    ``d`` is a squarefree integer != 0, 1, or None for a plain rational
    (then b = 0).  Elements with b = 0 compare equal across fields.
    """

    d: int | None
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d is not None:
            _require_field_d(self.d)
        elif self.b != 0:
            raise ValueError("rational elements must have b = 0")

    @classmethod
    def rational(cls, x: RationalLike) -> "QuadElement":
        return cls(None, Fraction(x), Fraction(0))

    @classmethod
    def sqrt_of(cls, d: int) -> "QuadElement":
        return cls(d, Fraction(0), Fraction(1))

    def _key(self):
        return (self.a, self.b, self.d) if self.b else (self.a, Fraction(0), None)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadElement.rational(other)
        if not isinstance(other, QuadElement):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _join(self, other: "QuadElement | RationalLike") -> tuple["QuadElement", "QuadElement", int | None]:
        if isinstance(other, (int, Fraction)):
            other = QuadElement.rational(other)
        if not isinstance(other, QuadElement):
            raise TypeError(f"cannot combine QuadElement with {type(other).__name__}")
        if self.d is None:
            d = other.d
        elif other.d is None or other.d == self.d:
            d = self.d
        else:
            raise PreconditionError(
                "mixed-radicands",
                f"cannot mix sqrt({self.d}) with sqrt({other.d})",
            )
        return self, other, d

    def __add__(self, other):
        x, y, d = self._join(other)
        return QuadElement(d, x.a + y.a, x.b + y.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.d, -self.a, -self.b)

    def __sub__(self, other):
        x, y, d = self._join(other)
        return x + (-y)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        x, y, d = self._join(other)
        if d is None:
            return QuadElement(None, x.a * y.a, Fraction(0))
        return QuadElement(d, x.a * y.a + d * x.b * y.b, x.a * y.b + x.b * y.a)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        tail = f"sqrt({self.d})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.d})"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        return f"{self.a} {sign} {tail}"


@dataclass(frozen=True)
class FieldDescriptor:
    """Declared arithmetic profile of a characteristic-zero field.

    ``star_clause2`` declares that -1 is NOT a sum of two squares in the
    field; ``star_clause3`` declares the sqrt(5) clause.  When clause 2
    fails, ``witness`` holds a pair (a, b) with a^2 + b^2 = -1.
    """

    name: str
    kind: str  # "rationals" | "reals" | "quadratic"
    d: int | None = None
    star_clause2: bool = True
    star_clause3: bool = True
    witness: tuple[QuadElement, QuadElement] | None = None

    def __post_init__(self):
        if self.kind not in ("rationals", "reals", "quadratic"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "quadratic":
            if self.d is None:
                raise ValueError("quadratic descriptor needs d")
            _require_field_d(self.d)
        elif self.d is not None:
            raise ValueError(f"{self.kind} descriptor must not carry d")
        if self.kind in ("rationals", "reals") and not self.star_clause2:
            raise ValueError(f"-1 is not a sum of two squares in {self.name}")
        if self.witness is not None:
            for w in self.witness:
                if w.d is not None and w.d != self.d:
                    raise ValueError("witness lives in a different field")


def verify_negative_one_witness(descriptor: FieldDescriptor) -> bool:
    """True iff the declared witness (a, b) satisfies a^2 + b^2 = -1 exactly."""
    if descriptor.witness is None:
        raise PreconditionError("witness-absent", f"{descriptor.name} carries no witness")
    a, b = descriptor.witness
    return a * a + b * b == QuadElement.rational(-1)


def satisfies_star(descriptor: FieldDescriptor) -> bool:
    """Conjunction of the three declared clauses of the field condition.

    A quadratic descriptor whose clause 2 disagrees with d raises: -1 is a
    sum of two squares in Q(sqrt d) iff d < 0 and d != 1 mod 8, where the
    Hilbert symbol (-1,-1) splits at the real and 2-adic places.  Clause 2
    declared beside a verifying witness is such a disagreement.
    """
    d, clause2 = descriptor.d, descriptor.star_clause2
    if descriptor.kind == "quadratic" and clause2 == (d < 0 and d % 8 != 1):
        raise PreconditionError("inconsistent-descriptor", f"{descriptor.name}: clause 2 disagrees with d = {d}")
    return clause2 and descriptor.star_clause3


def standard_field_table() -> dict[str, FieldDescriptor]:
    """The descriptors shipped with the package.

    Q, R and Q(sqrt5) satisfy the field condition; Q(sqrt-1) and Q(sqrt-3)
    fail clause 2 with explicit witnesses; Q(sqrt-7) fails clause 3 (its
    extension by sqrt5 admits a sum-of-two-squares representation of -1).
    """
    half = Fraction(1, 2)
    return {
        "Q": FieldDescriptor(name="Q", kind="rationals"),
        "R": FieldDescriptor(name="R", kind="reals"),
        "Q(sqrt5)": FieldDescriptor(name="Q(sqrt5)", kind="quadratic", d=5),
        "Q(sqrt-1)": FieldDescriptor(
            name="Q(sqrt-1)",
            kind="quadratic",
            d=-1,
            star_clause2=False,
            star_clause3=False,
            witness=(QuadElement.sqrt_of(-1), QuadElement.rational(0)),
        ),
        "Q(sqrt-3)": FieldDescriptor(
            name="Q(sqrt-3)",
            kind="quadratic",
            d=-3,
            star_clause2=False,
            star_clause3=False,
            witness=(QuadElement(-3, half, half), QuadElement(-3, half, -half)),
        ),
        "Q(sqrt-7)": FieldDescriptor(
            name="Q(sqrt-7)",
            kind="quadratic",
            d=-7,
            star_clause2=True,
            star_clause3=False,
        ),
    }


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _coefficient(x: object) -> Fraction:
    """A witness coefficient: an integer or a "p/q" string, never a float."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise ParseError(f"witness coefficients must be integers or 'p/q' strings, got {x!r}")


def _clause(data: dict, key: str) -> bool:
    value = data.get(key, True)
    if not isinstance(value, bool):
        raise ParseError(f"{key} must be true or false, got {value!r}")
    return value


def descriptor_from_dict(data: dict) -> FieldDescriptor:
    """Build a descriptor from a parsed config entry."""
    try:
        name = data["name"]
        if not isinstance(name, str):
            raise ParseError(f"field name must be a string, got {name!r}")
        kind = data["kind"]
        d = data.get("d")
        if d is not None and (isinstance(d, bool) or not isinstance(d, int)):
            raise ParseError(f"d must be an integer, got {d!r}")
        witness = None
        if data.get("witness") is not None:
            pairs = data["witness"]
            if len(pairs) != 2 or any(len(p) != 2 for p in pairs):
                raise ParseError("witness must be a pair of [a, b] entries")
            witness = tuple(QuadElement(d, _coefficient(p[0]), _coefficient(p[1])) for p in pairs)
        return FieldDescriptor(
            name=name,
            kind=kind,
            d=d,
            star_clause2=_clause(data, "star_clause2"),
            star_clause3=_clause(data, "star_clause3"),
            witness=witness,
        )
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad field descriptor: {exc}") from exc


def load_field_descriptors(entries: list[dict]) -> dict[str, FieldDescriptor]:
    """Parse a list of config entries into a descriptor table."""
    table = {}
    for entry in entries:
        desc = descriptor_from_dict(entry)
        table[desc.name] = desc
    return table
