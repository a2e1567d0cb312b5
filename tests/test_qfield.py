import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Rational, expand, factorint, sqrt

from toricsym.errors import PreconditionError
from toricsym.qfield import (
    FieldDescriptor,
    _is_squarefree,
    satisfies_star,
    standard_field_table,
    verify_negative_one_witness,
)


def test_defining_relation_of_the_radical():
    # sqrt(d)^2 = d enters the check through d*(a1^2 + b1^2).
    for d, verdict in ((-1, True), (-2, False)):
        desc = FieldDescriptor(name="F", kind="quadratic", d=d, star_clause2=False, witness=((0, 1), (0, 0)))
        assert verify_negative_one_witness(desc) is verdict


def test_half_plus_minus_root_minus_three_squares_to_minus_one():
    half = Fraction(1, 2)
    desc = FieldDescriptor(name="F", kind="quadratic", d=-3, star_clause2=False, witness=((half, half), (half, -half)))
    assert verify_negative_one_witness(desc)


def test_d_must_be_squarefree():
    with pytest.raises(ValueError):
        FieldDescriptor(name="F", kind="quadratic", d=4, star_clause2=False, witness=((1, 1), (0, 0)))
    with pytest.raises(ValueError):
        FieldDescriptor(name="F", kind="quadratic", d=12, star_clause2=False, witness=((1, 1), (0, 0)))


class TestSquarefree:
    def test_agrees_with_sympy(self):
        rng = random.Random(5)
        primes = [2, 3, 5, 7, 101, 1009, 10007, 1000003]
        ds = list(range(-3000, 3001))
        ds += [rng.randrange(2, 10**10) for _ in range(100)]
        # Cofactors at the cube-root boundary: p^2, p^3, p*q and p^2*q.
        ds += [p**k * q for p in primes for q in (1, 11, 10009) for k in (1, 2, 3)]
        for d in ds:
            if d:
                expected = all(e == 1 for e in factorint(abs(d)).values())
                assert _is_squarefree(d) is expected, d

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert _is_squarefree(100000000000031)
        assert _is_squarefree(-100000000000031)
        assert time.perf_counter() - start < 1.0

    def test_radicands_beyond_the_bound_are_refused(self):
        for d in (10**18 + 9, -(10**18 + 9), 10**30 + 57):
            with pytest.raises(PreconditionError) as err:
                FieldDescriptor(name="x", kind="quadratic", d=d)
            assert err.value.reason == "radicand-too-large"

    def test_prime_at_the_bound_is_accepted(self):
        # About 10^6 trial divisions, 0.1 s.
        assert FieldDescriptor(name="x", kind="quadratic", d=999999999999999989).d == 999999999999999989

    def test_arithmetic_does_not_recheck_d(self, monkeypatch):
        from toricsym import qfield

        d = -999999999999999989
        desc = FieldDescriptor(name="F", kind="quadratic", d=d, star_clause2=False, witness=((1, 0), (0, 0)))
        calls = []
        monkeypatch.setattr(qfield, "_is_squarefree", lambda n: calls.append(n) or True)
        assert not verify_negative_one_witness(desc)
        assert calls == []

    def test_square_of_a_large_prime_is_rejected(self):
        assert not _is_squarefree(1000003**2)
        with pytest.raises(ValueError):
            FieldDescriptor(name="bad", kind="quadratic", d=1000003**2)


class TestStarCondition:
    def test_table_verdicts(self):
        table = standard_field_table()
        assert satisfies_star(table["Q"])
        assert satisfies_star(table["R"])
        assert satisfies_star(table["Q(sqrt5)"])
        assert not satisfies_star(table["Q(sqrt-1)"])
        assert not satisfies_star(table["Q(sqrt-3)"])
        assert not satisfies_star(table["Q(sqrt-7)"])

    def test_witnesses_verify(self):
        table = standard_field_table()
        assert verify_negative_one_witness(table["Q(sqrt-1)"])
        assert verify_negative_one_witness(table["Q(sqrt-3)"])

    def test_bad_witness_fails(self):
        desc = FieldDescriptor(
            name="Q(sqrt-3)*",
            kind="quadratic",
            d=-3,
            star_clause2=False,
            star_clause3=False,
            witness=((1, 0), (1, 0)),
        )
        assert not verify_negative_one_witness(desc)
        assert not verify_negative_one_witness(FieldDescriptor(name="Q", kind="rationals", witness=((0, 0), (1, 0))))

    def test_missing_witness_is_an_error(self):
        with pytest.raises(PreconditionError):
            verify_negative_one_witness(standard_field_table()["Q"])

    def test_verifying_witness_contradicts_declared_clause(self):
        desc = FieldDescriptor(
            name="inconsistent",
            kind="quadratic",
            d=-1,
            star_clause2=True,
            star_clause3=True,
            witness=((0, 1), (0, 0)),
        )
        with pytest.raises(PreconditionError):
            satisfies_star(desc)

    @pytest.mark.parametrize("d", [-3, -5])
    def test_clause2_declared_true_where_a_witness_exists_is_refused(self, d):
        with pytest.raises(PreconditionError) as err:
            satisfies_star(FieldDescriptor(name="F", kind="quadratic", d=d))
        assert err.value.reason == "inconsistent-descriptor"

    @pytest.mark.parametrize("d", [-7, -15, -23, 2, 5, 17])
    def test_clause2_declared_false_where_no_witness_exists_is_refused(self, d):
        with pytest.raises(PreconditionError) as err:
            satisfies_star(FieldDescriptor(name="F", kind="quadratic", d=d, star_clause2=False))
        assert err.value.reason == "inconsistent-descriptor"

    def test_star_fails_whenever_a_witness_verifies(self):
        for desc in standard_field_table().values():
            if desc.witness is not None and verify_negative_one_witness(desc):
                assert not satisfies_star(desc)

    def test_reals_cannot_declare_clause2_false(self):
        with pytest.raises(ValueError):
            FieldDescriptor(name="R", kind="reals", star_clause2=False)

    @pytest.mark.parametrize("d", [4, -8, 12, 0, 1])
    def test_quadratic_d_must_be_squarefree_and_not_0_or_1(self, d):
        with pytest.raises(ValueError):
            FieldDescriptor(name="bad", kind="quadratic", d=d)


def _two_square_witness(d):
    """The coefficients ((a0, a1), (b0, b1)) of a pair with a^2 + b^2 = -1 in
    Q(sqrt d), from -d = x^2 + y^2 + z^2 with s = x^2 + y^2 > 0 (Legendre):
    a = (zx - sqrt(d)*y)/s and b = (sqrt(d)*x + zy)/s."""
    r = range(math.isqrt(-d) + 1)
    x, y, z = next((x, y, z) for x in r for y in r for z in r if x * x + y * y > 0 and x * x + y * y + z * z == -d)
    s = x * x + y * y
    return (Fraction(z * x, s), Fraction(-y, s)), (Fraction(z * y, s), Fraction(x, s))


@pytest.mark.parametrize("d", [d for d in range(-399, 0) if _is_squarefree(d) and d % 8 != 1])
def test_every_field_the_rule_admits_has_a_witness(d):
    a, b = _two_square_witness(d)
    with pytest.raises(PreconditionError):
        satisfies_star(FieldDescriptor(name="F", kind="quadratic", d=d))
    witnessed = FieldDescriptor(name="F", kind="quadratic", d=d, star_clause2=False, witness=(a, b))
    assert verify_negative_one_witness(witnessed)
    assert not satisfies_star(witnessed)


radicands = st.integers(-400, 400).filter(lambda d: d not in (0, 1) and _is_squarefree(d))
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def candidate_witnesses(draw):
    """A radicand and four coefficients: arbitrary ones, or a Legendre witness
    with some coefficients negated, which keeps a0^2 + b0^2 + d(a1^2 + b1^2)
    and may break a0*a1 + b0*b1 = 0."""
    d = draw(radicands)
    if d > 0 or d % 8 == 1 or draw(st.booleans()):
        return d, [draw(coefficients) for _ in range(4)]
    (a0, a1), (b0, b1) = _two_square_witness(d)
    return d, [c * draw(st.sampled_from((1, -1))) for c in (a0, a1, b0, b1)]


@settings(max_examples=300, deadline=None)
@given(candidate_witnesses())
def test_witness_check_agrees_with_sympy(candidate):
    d, (a0, a1, b0, b1) = candidate
    desc = FieldDescriptor(name="F", kind="quadratic", d=d, star_clause2=False, witness=((a0, a1), (b0, b1)))
    a0, a1, b0, b1 = (Rational(c.numerator, c.denominator) for c in (a0, a1, b0, b1))
    expected = expand((a0 + a1 * sqrt(d)) ** 2 + (b0 + b1 * sqrt(d)) ** 2) == -1
    assert verify_negative_one_witness(desc) is expected
