import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc import scalars
from skewcalc.errors import (
    BadParamsError,
    DivisionByZeroError,
    ExprSyntaxError,
    FieldMismatchError,
    ResourceLimitError,
)
from skewcalc.scalars import (
    CYCLOTOMIC,
    PRIME,
    PRIME_CAP,
    RATFUNC_Q,
    RATIONAL,
    FieldDescriptor,
    is_prime,
    scalar_parse,
)

Q = FieldDescriptor(RATIONAL)
F5 = FieldDescriptor(PRIME, 5)
RQ = FieldDescriptor(RATFUNC_Q)
C3 = FieldDescriptor(CYCLOTOMIC, 3)


def test_rational_arithmetic():
    a = Q.from_fraction(Fraction(2, 3))
    b = Q.from_int(5)
    assert str(a + b) == "17/3"
    assert (a * a.inv()).is_one()
    assert (a - a).is_zero()


def test_prime_field_wraps():
    a = F5.from_int(7)
    assert str(a) == "2"
    assert (a + F5.from_int(3)).is_zero()
    assert (F5.from_int(2) * F5.from_int(3)).is_one()


def test_prime_field_requires_prime():
    with pytest.raises(BadParamsError):
        FieldDescriptor(PRIME, 6).zero()


def test_ratfunc_cancellation():
    q = RQ.q()
    one = RQ.one()
    # (q^2 - 1)/(q - 1) == q + 1
    lhs = (q * q - one) * (q - one).inv()
    assert lhs == q + one


def test_cyclotomic_reduction():
    q = C3.q()
    # q^3 = 1 and 1 + q + q^2 = 0
    assert (q * q * q).is_one()
    assert (C3.one() + q + q * q).is_zero()


def test_cyclotomic_inverse():
    q = C3.q()
    x = q - C3.one()
    assert (x * x.inv()).is_one()


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        Q.zero().inv()


def test_scalar_parse_expressions():
    assert scalar_parse(Q, "1/2 + 3*(2 - 1)") == Q.from_fraction(Fraction(7, 2))
    q = RQ.q()
    assert scalar_parse(RQ, "(q^2 - 1)/(q - 1)") == q + RQ.one()
    assert scalar_parse(C3, "q^4") == C3.q()


def test_scalar_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        scalar_parse(Q, "1 + ")
    assert err.value.code == "SYNTAX_ERROR"


def test_characteristics():
    assert Q.characteristic() == 0
    assert F5.characteristic() == 5
    assert RQ.characteristic() == 0
    assert C3.characteristic() == 0


# ---------------------------------------------------------------------------
# reference oracle: the previous Fraction-based kernel. The arithmetic is
# kept verbatim; the classes are renamed (FieldDescriptor -> RefField,
# Scalar -> RefScalar) and the field keeps only its constructors.


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(
        tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        )
    )


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        c = r[-1] / lead
        k = len(r) - len(b)
        q[k] = c
        for j, cb in enumerate(b):
            r[k + j] -= c * cb
        while r and r[-1] == 0:
            r.pop()
    return _ptrim(q), _ptrim(r)


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def _pmonic_pair(num, den):
    """Reduce num/den: coprime, den monic. Zero is ((), (1,))."""
    if not den:
        raise DivisionByZeroError("zero denominator")
    if not num:
        return (), (Fraction(1),)
    g = _pgcd(num, den)
    if len(g) > 1:
        num = _pdivmod(num, g)[0]
        den = _pdivmod(den, g)[0]
    lead = den[-1]
    num = tuple(c / lead for c in num)
    den = tuple(c / lead for c in den)
    return num, den


@lru_cache(maxsize=None)
def cyclotomic_polynomial(l: int):
    """Coefficients of the l-th cyclotomic polynomial, ascending degree."""
    if l < 1:
        raise BadParamsError("cyclotomic order must be >= 1")
    # x^l - 1 divided by the product of the lower-order cyclotomics
    num = tuple(
        Fraction(-1) if i == 0 else (Fraction(1) if i == l else Fraction(0))
        for i in range(l + 1)
    )
    for d in range(1, l):
        if l % d == 0:
            num = _pdivmod(num, cyclotomic_polynomial(d))[0]
    return num


def _pmod(a, modulus):
    return _pdivmod(a, modulus)[1]


def _pinv_mod(a, modulus):
    """Inverse of a mod modulus via extended Euclid (fails on zero divisor)."""
    if not a:
        raise DivisionByZeroError("inverse of zero")
    r0, r1 = modulus, a
    s0, s1 = (), (Fraction(1),)
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(_pmul(q, s1)))
    if len(r0) != 1:
        raise DivisionByZeroError("element is a zero divisor mod modulus")
    c = r0[0]
    return _ptrim(tuple(x / c for x in s0))


@dataclass(frozen=True)
class RefField:
    kind: str
    param: int | None = None

    def zero(self) -> "RefScalar":
        return self.from_int(0)

    def one(self) -> "RefScalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "RefScalar":
        return self.from_fraction(Fraction(n))

    def from_fraction(self, f: Fraction) -> "RefScalar":
        if self.kind == RATIONAL:
            return RefScalar(self, f)
        if self.kind == PRIME:
            p = self.param
            den = f.denominator % p
            if den == 0:
                raise DivisionByZeroError(f"{f} has no image in GF({p})")
            return RefScalar(self, (f.numerator * pow(den, -1, p)) % p)
        if self.kind == RATFUNC_Q:
            if f == 0:
                return RefScalar(self, ((), (Fraction(1),)))
            return RefScalar(self, ((f,), (Fraction(1),)))
        num = (f,) if f != 0 else ()
        return RefScalar(self, num)

    def q(self) -> "RefScalar":
        """The distinguished scalar q (ratfunc and cyclotomic fields only)."""
        if self.kind == RATFUNC_Q:
            return RefScalar(self, ((Fraction(0), Fraction(1)), (Fraction(1),)))
        if self.kind == CYCLOTOMIC:
            mod = cyclotomic_polynomial(self.param)
            val = _pmod((Fraction(0), Fraction(1)), mod)
            return RefScalar(self, _ptrim(val))
        raise FieldMismatchError(f"field {self} has no element named q")


@dataclass(frozen=True)
class RefScalar:
    """An exact field element in canonical form."""

    field: RefField
    value: object

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        k = self.field.kind
        if k == RATIONAL:
            return self.value == 0
        if k == PRIME:
            return self.value == 0
        if k == RATFUNC_Q:
            return not self.value[0]
        return not self.value

    def is_one(self) -> bool:
        return self == self.field.one()

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, RefScalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine {self.field} with {other.field}"
            )

    def __add__(self, other):
        self._check(other)
        k = self.field.kind
        if k == RATIONAL:
            return RefScalar(self.field, self.value + other.value)
        if k == PRIME:
            return RefScalar(self.field, (self.value + other.value) % self.field.param)
        if k == RATFUNC_Q:
            n1, d1 = self.value
            n2, d2 = other.value
            num = _padd(_pmul(n1, d2), _pmul(n2, d1))
            return RefScalar(self.field, _pmonic_pair(num, _pmul(d1, d2)))
        return RefScalar(self.field, _padd(self.value, other.value))

    def __neg__(self):
        k = self.field.kind
        if k == RATIONAL:
            return RefScalar(self.field, -self.value)
        if k == PRIME:
            return RefScalar(self.field, (-self.value) % self.field.param)
        if k == RATFUNC_Q:
            n, d = self.value
            return RefScalar(self.field, (_pneg(n), d))
        return RefScalar(self.field, _pneg(self.value))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        k = self.field.kind
        if k == RATIONAL:
            return RefScalar(self.field, self.value * other.value)
        if k == PRIME:
            return RefScalar(self.field, (self.value * other.value) % self.field.param)
        if k == RATFUNC_Q:
            n1, d1 = self.value
            n2, d2 = other.value
            return RefScalar(self.field, _pmonic_pair(_pmul(n1, n2), _pmul(d1, d2)))
        mod = cyclotomic_polynomial(self.field.param)
        return RefScalar(self.field, _pmod(_pmul(self.value, other.value), mod))

    def inv(self):
        if self.is_zero():
            raise DivisionByZeroError("division by zero")
        k = self.field.kind
        if k == RATIONAL:
            return RefScalar(self.field, 1 / self.value)
        if k == PRIME:
            return RefScalar(self.field, pow(self.value, -1, self.field.param))
        if k == RATFUNC_Q:
            n, d = self.value
            return RefScalar(self.field, _pmonic_pair(d, n))
        mod = cyclotomic_polynomial(self.field.param)
        return RefScalar(self.field, _pinv_mod(self.value, mod))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        k = self.field.kind
        if k == RATIONAL:
            return str(self.value)
        if k == PRIME:
            return str(self.value)
        if k == RATFUNC_Q:
            n, d = self.value
            ns = _poly_str(n)
            if d == (Fraction(1),):
                return ns
            return f"({ns})/({_poly_str(d)})"
        return _poly_str(self.value)

    __repr__ = __str__


def _fraction_str(f: Fraction) -> str:
    return str(f)


def _poly_str(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(_fraction_str(c))
        else:
            var = "q" if i == 1 else f"q^{i}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{_fraction_str(c)}*{var}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# the integer kernel against the reference, on random expression trees

KERNEL_FIELDS = (
    [(RATIONAL, None), (PRIME, 7), (PRIME, 32003), (RATFUNC_Q, None)]
    + [(CYCLOTOMIC, l) for l in range(2, 13)]
)
ORACLE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                           database=None)


def _trees(with_q):
    leaf = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    if with_q:
        leaf = leaf | st.just("q")
    return st.recursive(
        leaf,
        lambda kids: (
            st.tuples(st.sampled_from("+-*/"), kids, kids)
            | st.tuples(st.sampled_from(["neg", "inv"]), kids)
            | st.tuples(st.just("^"), kids, st.integers(-3, 4))
        ),
        max_leaves=8,
    )


def _evaluate(field, tree):
    """Value of `tree` in `field`, or the type of the error it raises."""
    def ev(t):
        if isinstance(t, Fraction):
            return field.from_fraction(t)
        if t == "q":
            return field.q()
        op = t[0]
        if op == "neg":
            return -ev(t[1])
        if op == "inv":
            return ev(t[1]).inv()
        if op == "^":
            return ev(t[1]) ** t[2]
        a, b = ev(t[1]), ev(t[2])
        return {"+": a + b, "-": a - b, "*": a * b}[op] if op != "/" else a / b

    try:
        return ev(tree)
    except DivisionByZeroError as exc:
        return type(exc)


@pytest.mark.parametrize("kind,param", KERNEL_FIELDS)
@ORACLE_SETTINGS
@given(data=st.data())
def test_kernel_matches_fraction_reference(kind, param, data):
    field, ref = FieldDescriptor(kind, param), RefField(kind, param)
    trees = _trees(kind in (RATFUNC_Q, CYCLOTOMIC))
    values = []
    for tree in (data.draw(trees), data.draw(trees)):
        got, want = _evaluate(field, tree), _evaluate(ref, tree)
        if isinstance(want, type):  # division by zero on both sides
            assert got is want
            continue
        pairs = [(got, want), (-got, -want)]
        if not want.is_zero():
            pairs.append((got.inv(), want.inv()))
        for x, y in pairs:
            assert str(x) == str(y)
            again = scalar_parse(field, str(x))
            assert again == x and hash(again) == hash(x)
            values.append(x)
    for x in values:
        for y in values:
            assert (x == y) == (str(x) == str(y))
            if x == y:
                assert hash(x) == hash(y)


@ORACLE_SETTINGS
@given(data=st.data())
def test_ratfunc_products_by_monomial_ratios_match_fraction_reference(data):
    # a constant or c*q^i/(d*q^j) times any value takes no gcd: the product
    # is still canonical, as the reference and the full reduction show
    field, ref = FieldDescriptor(RATFUNC_Q), RefField(RATFUNC_Q)
    nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
    ratio = ("/", ("*", data.draw(nonzero), ("^", "q", data.draw(st.integers(0, 3)))),
             ("*", data.draw(nonzero), ("^", "q", data.draw(st.integers(0, 3)))))
    other = data.draw(_trees(True))
    for tree in (("*", ratio, other), ("*", other, ratio), ("/", other, ratio)):
        got, want = _evaluate(field, tree), _evaluate(ref, tree)
        if isinstance(want, type):
            assert got is want
            continue
        assert str(got) == str(want)
        again = scalar_parse(field, str(got))
        assert again == got and hash(again) == hash(got)
    x, m = _evaluate(field, other), _evaluate(field, ratio)
    if not isinstance(x, type):
        (n1, d1), (n2, d2) = x.value, m.value
        assert (x * m).value == (m * x).value == \
            scalars._rf_make(scalars._pmul(n1, n2), scalars._pmul(d1, d2))


@pytest.mark.parametrize("kind,param", KERNEL_FIELDS)
def test_equal_values_built_differently_hash_equal(kind, param):
    f = FieldDescriptor(kind, param)
    x = f.q() if kind in (RATFUNC_Q, CYCLOTOMIC) else f.from_int(3)
    y = f.from_int(2) + x
    z = (y * y - f.from_int(4)) / y + f.from_int(4) / y
    assert z == y and hash(z) == hash(y) and str(z) == str(y)


@pytest.mark.parametrize("kind,param", [(RATIONAL, None), (PRIME, 7), (RATFUNC_Q, None),
                                        (CYCLOTOMIC, 5)])
def test_powers_match_repeated_products_with_no_product_wasted(kind, param, monkeypatch):
    f = FieldDescriptor(kind, param)
    x = f.from_fraction(Fraction(-2, 3)) + (f.q() if kind in (RATFUNC_Q, CYCLOTOMIC) else f.zero())
    expected, step = {0: f.one()}, {1: x, -1: x.inv()}
    for n in range(1, 41):
        expected[n] = expected[n - 1] * step[1]
        expected[-n] = expected[-n + 1] * step[-1]
    products = []
    mul = f.ops.mul
    monkeypatch.setattr(f.ops, "mul", lambda a, b: products.append(1) or mul(a, b))
    for n in range(-6, 41):
        products.clear()
        got = x ** n
        assert got == expected[n] and str(got) == str(expected[n])
        # one squaring per bit after the first, one product per further set bit
        k = abs(n)
        assert len(products) == (k.bit_length() + bin(k).count("1") - 2 if k else 0)


def test_constants_are_shared_per_field():
    for kind, param in KERNEL_FIELDS:
        f = FieldDescriptor(kind, param)
        assert f.zero() is f.zero() is f.from_int(0)
        assert f.one() is f.one() is f.from_int(1)
        assert f == FieldDescriptor(kind, param)
        assert hash(f) == hash(FieldDescriptor(kind, param))
        assert repr(f) == repr(FieldDescriptor(kind, param))


def test_field_equality_hash_and_repr_ignore_the_cache():
    used, fresh = FieldDescriptor(CYCLOTOMIC, 5), FieldDescriptor(CYCLOTOMIC, 5)
    used.q(), used.one()  # fills the cache of one of them only
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "FieldDescriptor(kind='cyclotomic', param=5)"
    assert repr(Q) == "FieldDescriptor(kind='rational', param=None)"
    assert len({Q, FieldDescriptor(RATIONAL), F5, FieldDescriptor(PRIME, 5)}) == 2
    assert F5 != FieldDescriptor(PRIME, 7) and Q != RQ and C3 != FieldDescriptor(CYCLOTOMIC, 4)
    assert Q != "rational" and Q != (RATIONAL, None)


@pytest.mark.parametrize("kind,param,message", [
    (RATIONAL, 2, "rational takes no parameter"),
    (RATFUNC_Q, 3, "ratfunc takes no parameter"),
    (PRIME, 8, "8 is not prime"),
    (PRIME, "7", "'7' is not prime"),
    (PRIME, None, "None is not prime"),
    (CYCLOTOMIC, 1, "cyclotomic order must be an integer >= 2"),
    (CYCLOTOMIC, 3.0, "cyclotomic order must be an integer >= 2"),
    ("real", None, "unknown field kind 'real'"),
])
def test_field_descriptor_validates_kind_and_parameter(kind, param, message):
    with pytest.raises(BadParamsError, match=message):
        FieldDescriptor(kind, param)


@pytest.mark.parametrize("kind,param,value,expected", [
    (RATIONAL, None, Fraction(-6, 4), "-3/2"),
    (RATIONAL, None, 7, "7"),
    (PRIME, 5, Fraction(1, 2), "3"),
    (RATFUNC_Q, None, Fraction(2, 3), "2/3"),
    (CYCLOTOMIC, 3, Fraction(-5, 10), "-1/2"),
    (CYCLOTOMIC, 3, Fraction(0), "0"),
])
def test_from_fraction_takes_a_fraction_or_an_int(kind, param, value, expected):
    field = FieldDescriptor(kind, param)
    x = field.from_fraction(value)
    assert str(x) == expected
    assert x == scalar_parse(field, expected)


def test_fields_equal_but_not_identical_combine():
    a, b = FieldDescriptor(CYCLOTOMIC, 5), FieldDescriptor(CYCLOTOMIC, 5)
    assert a is not b
    assert a.q() * b.q() == scalar_parse(a, "q^2")
    with pytest.raises(FieldMismatchError):
        a.q() + FieldDescriptor(CYCLOTOMIC, 7).q()


def test_ratfunc_canonical_form():
    v = scalar_parse(RQ, "(2*q^3 - 2*q)/(6*q^2 + 6*q)").value
    assert v == ((-1, 1), (3,))  # (q - 1)/3: coprime, content 1
    v = scalar_parse(RQ, "1/(-2*q)").value
    assert v == ((-1,), (0, 2))  # positive leading denominator coefficient
    assert str(scalar_parse(RQ, "(q + 1)/(2*q - 1)")) == "(1/2 + 1/2*q)/(-1/2 + q)"


def test_cyclotomic_canonical_form():
    c6 = FieldDescriptor(CYCLOTOMIC, 6)
    v = scalar_parse(c6, "(2*q + 4)/6").value
    assert v == ((2, 1), 3)
    assert str(scalar_parse(c6, "q^3")) == "-1"


# ---------------------------------------------------------------------------
# rational pairs against Fraction, on wide values

_WIDE = 10**40
_wide_ints = st.integers(-_WIDE, _WIDE)
_wide_dens = st.integers(1, _WIDE)


def _rational_operands(n1, d1, n2, d2, k, g):
    """Fractions that reach every path of the pair kernel: integers, zero,
    a partner over the same canonical denominator, a pair of denominators
    sharing the factor g, and a partner that cancels across a product."""
    a, b = Fraction(n1, d1), Fraction(n2, d2)
    out = [a, b, Fraction(n1), Fraction(k), Fraction(0), -a,
           Fraction(k * a.denominator + 1, a.denominator),
           Fraction(n1, g * d1), Fraction(n2, g * d2)]
    if a:
        out.append(Fraction(k * a.denominator, a.numerator * d2))
    return out


def _assert_canonical(x, want):
    n, d = x.value
    assert d > 0 and gcd(n, d) == 1  # so zero is (0, 1)
    assert Fraction(n, d) == want
    assert str(x) == str(want)
    again = scalar_parse(Q, str(x))
    assert again == x and hash(again) == hash(x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n1=_wide_ints, d1=_wide_dens, n2=_wide_ints, d2=_wide_dens,
       k=_wide_ints, g=st.integers(2, _WIDE))
def test_rational_pairs_match_fraction(n1, d1, n2, d2, k, g):
    fracs = _rational_operands(n1, d1, n2, d2, k, g)
    xs = [Q.from_fraction(f) for f in fracs]
    _assert_canonical(Q.from_int(k), Fraction(k))
    for x, a in zip(xs, fracs):
        _assert_canonical(x, a)
        _assert_canonical(-x, -a)
        if a:
            _assert_canonical(x.inv(), 1 / a)
            _assert_canonical(x ** -3, a ** -3)
    for x, a in zip(xs, fracs):
        for y, b in zip(xs, fracs):
            _assert_canonical(x + y, a + b)
            _assert_canonical(x - y, a - b)
            _assert_canonical(x * y, a * b)
            if b:
                _assert_canonical(x / y, a / b)
                z = x * y / y  # the same value, built another way
                assert z == x and hash(z) == hash(x)


# ---------------------------------------------------------------------------
# primality


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime_equals_trial_division_below_1e5():
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if _trial_division(n)
    ]


def test_is_prime_large_values():
    for n in (3215031751, 3825123056546413051, 2**61 - 1 + 2):  # composites
        assert not is_prime(n)
    for n in (1000000000000000003, 2**61 - 1, 2**31 - 1, 32003):
        assert is_prime(n)
    with pytest.raises(ResourceLimitError, match="PRIME_CAP"):
        is_prime(PRIME_CAP)
    with pytest.raises(ResourceLimitError, match="PRIME_CAP"):
        is_prime(2**89 - 1)


def test_long_integer_literal_is_a_resource_limit():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ResourceLimitError, match="int_max_str_digits"):
        scalar_parse(Q, "7" * (limit + 1))
    assert scalar_parse(Q, "7" * limit) == Q.from_int(int("7" * limit))
