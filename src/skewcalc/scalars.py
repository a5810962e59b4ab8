"""Exact coefficient arithmetic.

Four field kinds are supported:

* ``rational``      -- the rational numbers,
* ``prime(p)``      -- the field with p elements,
* ``ratfunc``       -- rational functions in the indeterminate q over the
                       rationals,
* ``cyclotomic(l)`` -- Q(q) with q a primitive l-th root of unity, i.e.
                       Q[q] modulo the l-th cyclotomic polynomial.

Every Scalar has a unique canonical representation, so equality is plain
structural equality and values are hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BadParamsError,
    DivisionByZeroError,
    ExprSyntaxError,
    FieldMismatchError,
    ResourceLimitError,
)

RATIONAL = "rational"
PRIME = "prime"
RATFUNC_Q = "ratfunc"
CYCLOTOMIC = "cyclotomic"

# largest |n| accepted after `^` in scalar and element expressions
MAX_EXPONENT = 10_000


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division; parameters are small)."""
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


# ---------------------------------------------------------------------------
# dense univariate polynomials over Fraction, as tuples without trailing zeros

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


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str
    param: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL or self.kind == RATFUNC_Q:
            if self.param is not None:
                raise BadParamsError(f"{self.kind} takes no parameter")
        elif self.kind == PRIME:
            if not isinstance(self.param, int) or not is_prime(self.param):
                raise BadParamsError(f"{self.param!r} is not prime")
        elif self.kind == CYCLOTOMIC:
            if not isinstance(self.param, int) or self.param < 2:
                raise BadParamsError("cyclotomic order must be an integer >= 2")
        else:
            raise BadParamsError(f"unknown field kind {self.kind!r}")

    # -- constants ----------------------------------------------------------

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        return self.from_fraction(Fraction(n))

    def from_fraction(self, f: Fraction) -> "Scalar":
        if self.kind == RATIONAL:
            return Scalar(self, f)
        if self.kind == PRIME:
            p = self.param
            den = f.denominator % p
            if den == 0:
                raise DivisionByZeroError(f"{f} has no image in GF({p})")
            return Scalar(self, (f.numerator * pow(den, -1, p)) % p)
        if self.kind == RATFUNC_Q:
            if f == 0:
                return Scalar(self, ((), (Fraction(1),)))
            return Scalar(self, ((f,), (Fraction(1),)))
        num = (f,) if f != 0 else ()
        return Scalar(self, num)

    def q(self) -> "Scalar":
        """The distinguished scalar q (ratfunc and cyclotomic fields only)."""
        if self.kind == RATFUNC_Q:
            return Scalar(self, ((Fraction(0), Fraction(1)), (Fraction(1),)))
        if self.kind == CYCLOTOMIC:
            mod = cyclotomic_polynomial(self.param)
            val = _pmod((Fraction(0), Fraction(1)), mod)
            return Scalar(self, _ptrim(val))
        raise FieldMismatchError(f"field {self} has no element named q")

    def characteristic(self) -> int:
        return self.param if self.kind == PRIME else 0

    def __str__(self):
        if self.kind == PRIME:
            return f"gf({self.param})"
        if self.kind == CYCLOTOMIC:
            return f"cyclotomic({self.param})"
        if self.kind == RATFUNC_Q:
            return "ratfunc(q)"
        return "rational"


@dataclass(frozen=True)
class Scalar:
    """An exact field element in canonical form."""

    field: FieldDescriptor
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
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine {self.field} with {other.field}"
            )

    def __add__(self, other):
        self._check(other)
        k = self.field.kind
        if k == RATIONAL:
            return Scalar(self.field, self.value + other.value)
        if k == PRIME:
            return Scalar(self.field, (self.value + other.value) % self.field.param)
        if k == RATFUNC_Q:
            n1, d1 = self.value
            n2, d2 = other.value
            num = _padd(_pmul(n1, d2), _pmul(n2, d1))
            return Scalar(self.field, _pmonic_pair(num, _pmul(d1, d2)))
        return Scalar(self.field, _padd(self.value, other.value))

    def __neg__(self):
        k = self.field.kind
        if k == RATIONAL:
            return Scalar(self.field, -self.value)
        if k == PRIME:
            return Scalar(self.field, (-self.value) % self.field.param)
        if k == RATFUNC_Q:
            n, d = self.value
            return Scalar(self.field, (_pneg(n), d))
        return Scalar(self.field, _pneg(self.value))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        k = self.field.kind
        if k == RATIONAL:
            return Scalar(self.field, self.value * other.value)
        if k == PRIME:
            return Scalar(self.field, (self.value * other.value) % self.field.param)
        if k == RATFUNC_Q:
            n1, d1 = self.value
            n2, d2 = other.value
            return Scalar(self.field, _pmonic_pair(_pmul(n1, n2), _pmul(d1, d2)))
        mod = cyclotomic_polynomial(self.field.param)
        return Scalar(self.field, _pmod(_pmul(self.value, other.value), mod))

    def inv(self):
        if self.is_zero():
            raise DivisionByZeroError("division by zero")
        k = self.field.kind
        if k == RATIONAL:
            return Scalar(self.field, 1 / self.value)
        if k == PRIME:
            return Scalar(self.field, pow(self.value, -1, self.field.param))
        if k == RATFUNC_Q:
            n, d = self.value
            return Scalar(self.field, _pmonic_pair(d, n))
        mod = cyclotomic_polynomial(self.field.param)
        return Scalar(self.field, _pinv_mod(self.value, mod))

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
# operation-style entry points


def scalar_arith(op: str, a: Scalar, b: Scalar) -> Scalar:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise BadParamsError(f"unknown op {op!r}")


_NORMALIZE = str.maketrans({"−": "-", "·": "*", "⋅": "*"})


class _ScalarParser:
    """Recursive-descent parser for coefficient expressions.

    Grammar: expr := term (('+'|'-') term)*
             term := factor (('*'|'/') factor)*
             factor := ('-')* atom ('^' int)?
             atom := integer | 'q' | '(' expr ')'
    """

    def __init__(self, field: FieldDescriptor, text: str):
        self.field = field
        self.text = text.translate(_NORMALIZE)
        self.pos = 0

    def fail(self, msg):
        raise ExprSyntaxError(f"{msg} at position {self.pos}", pos=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Scalar:
        v = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail(f"unexpected {self.text[self.pos]!r}")
        return v

    def expr(self) -> Scalar:
        v = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                v = v + self.term()
            elif c == "-":
                self.pos += 1
                v = v - self.term()
            else:
                return v

    def term(self) -> Scalar:
        v = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                v = v * self.factor()
            elif c == "/":
                self.pos += 1
                v = v / self.factor()
            else:
                return v

    def factor(self) -> Scalar:
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        v = self.atom()
        if self.peek() == "^":
            self.pos += 1
            v = v ** self.exponent_literal()
        return v

    def int_literal(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.fail("expected integer")
        return int(self.text[start:self.pos])

    def exponent_literal(self) -> int:
        """An exponent after `^`; its absolute value is capped at
        MAX_EXPONENT."""
        start = self.pos
        try:
            n = self.int_literal()
        except ValueError:  # too many digits for int(), far above the cap
            n = None
        if n is None or abs(n) > MAX_EXPONENT:
            raise ResourceLimitError(
                f"exponent at position {start} exceeds the cap "
                f"MAX_EXPONENT = {MAX_EXPONENT}",
                cap="MAX_EXPONENT", limit=MAX_EXPONENT, pos=start,
            )
        return n

    def atom(self) -> Scalar:
        c = self.peek()
        if c == "(":
            self.pos += 1
            v = self.expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return v
        if c.isdigit():
            return self.field.from_int(self.int_literal())
        if c.isalpha():
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name == "q":
                return self.field.q()
            raise FieldMismatchError(
                f"symbol {name!r} is not an element of {self.field}"
            )
        self.fail("expected expression")


def scalar_parse(field: FieldDescriptor, text: str) -> Scalar:
    """Parse an exact field element; parse-print-parse is the identity."""
    return _ScalarParser(field, text).parse()
