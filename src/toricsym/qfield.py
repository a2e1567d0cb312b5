"""The field condition for Q, R and quadratic fields Q(sqrt(d)).

Field descriptors declare whether -1 is a sum of two squares, checked
against d for a quadratic field; where it is, the table carries a witness
pair a = a0 + a1*sqrt(d), b = b0 + b1*sqrt(d) as its rational coefficients.
As 1 and sqrt(d) are linearly independent over Q, a^2 + b^2 = -1 holds iff
the two identities over Q a0^2 + b0^2 + d*(a1^2 + b1^2) = -1 and
a0*a1 + b0*b1 = 0 hold, which is all a witness check computes.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .record import Record


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


def _element(d: int | None, a0: int | Fraction, a1: int | Fraction) -> tuple[Fraction, Fraction]:
    """The coefficients of a0 + a1*sqrt(d) as Fractions; a1 = 0 without a radicand."""
    if d is None and a1:
        raise ValueError("rational elements must have b = 0")
    return Fraction(a0), Fraction(a1)


class FieldDescriptor(Record):
    """Declared arithmetic profile of a characteristic-zero field.

    ``star_clause2`` declares that -1 is NOT a sum of two squares in the
    field; ``star_clause3`` declares the sqrt(5) clause.  When clause 2
    fails, ``witness`` holds the coefficients ((a0, a1), (b0, b1)) of a pair
    a = a0 + a1*sqrt(d), b = b0 + b1*sqrt(d) with a^2 + b^2 = -1, as
    Fractions; without a radicand a1 = b1 = 0.  ``kind`` is "rationals",
    "reals" or "quadratic", the last with a radicand ``d``.
    """

    __slots__ = ("name", "kind", "d", "star_clause2", "star_clause3", "witness")
    _defaults = {"d": None, "star_clause2": True, "star_clause3": True, "witness": None}

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
            object.__setattr__(self, "witness", tuple(_element(self.d, *pair) for pair in self.witness))


def verify_negative_one_witness(descriptor: FieldDescriptor) -> bool:
    """True iff the declared witness (a, b) satisfies a^2 + b^2 = -1 exactly:
    the rational part of a^2 + b^2 is -1 and its sqrt(d) part 0."""
    if descriptor.witness is None:
        raise PreconditionError("witness-absent", f"{descriptor.name} carries no witness")
    (a0, a1), (b0, b1) = descriptor.witness
    d = descriptor.d or 0
    return a0 * a0 + b0 * b0 + d * (a1 * a1 + b1 * b1) == -1 and a0 * a1 + b0 * b1 == 0


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
            witness=((0, 1), (0, 0)),
        ),
        "Q(sqrt-3)": FieldDescriptor(
            name="Q(sqrt-3)",
            kind="quadratic",
            d=-3,
            star_clause2=False,
            star_clause3=False,
            witness=((half, half), (half, -half)),
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


def _read_element(d: int | None, pair: list) -> tuple[Fraction, Fraction]:
    """A witness element of a config entry, its field checked as soon as it is read."""
    a0, a1 = _coefficient(pair[0]), _coefficient(pair[1])
    if d is not None:
        _require_field_d(d)
    return _element(d, a0, a1)


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
            witness = tuple(_read_element(d, p) for p in pairs)
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
        if desc.name in table:
            raise ParseError(f"field {desc.name!r} is described twice")
        table[desc.name] = desc
    return table
