"""Exact coefficient arithmetic.

Four field kinds are supported:

* ``rational``      -- the rational numbers,
* ``prime(p)``      -- the field with p elements,
* ``ratfunc``       -- rational functions in the indeterminate q over the
                       rationals,
* ``cyclotomic(l)`` -- Q(q) with q a primitive l-th root of unity, i.e.
                       Q[q] modulo the l-th cyclotomic polynomial.

Every Scalar has a unique canonical representation, so equality is plain
structural equality and values are hashable:

* rational: ``(num, den)``, Python ints with ``den > 0`` and
  ``gcd(num, den) == 1``; zero is ``(0, 1)``;
* prime: an ``int`` in ``range(p)``;
* cyclotomic: ``(coeffs, den)``, integer coefficients of degree below
  phi(l) and a positive integer denominator coprime to their content;
  zero is ``((), 1)``;
* ratfunc: ``(num, den)``, integer polynomials coprime over Q[q] with
  joint content 1 and a positive leading coefficient of ``den``; zero is
  ``((), (1,))``.

Integer polynomials are tuples of ints in ascending degree without
trailing zeros. A rational prints as ``-7/2`` or ``3``. The other kinds
print over a monic denominator, each coefficient a reduced ``n/d`` or an
integer, in ascending degree: ``(1/2 + 1/2*q)/(-1/2 + q)``, ``1/2*q``.
``from_fraction`` takes any value with integer ``numerator`` and
``denominator``, such as a ``fractions.Fraction``; the module itself does
not import ``fractions``.
"""

from __future__ import annotations

import sys
from functools import cached_property
from math import gcd

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

# largest |n| accepted after `^` in scalar and element expressions, and for
# the a_ij exponents of a `family` line
MAX_EXPONENT = 10_000

# Miller-Rabin with the prime bases 2..41 is deterministic below this
# bound (Sorenson and Webster, 2015); larger moduli are refused
PRIME_CAP = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _digits_limit_error(what: str, **details) -> ResourceLimitError:
    """`what` has more digits than int <-> str conversion allows."""
    limit = sys.get_int_max_str_digits()
    return ResourceLimitError(
        f"{what} has more digits than the interpreter's limit "
        f"int_max_str_digits = {limit}",
        cap="int_max_str_digits", limit=limit, **details,
    )


def _exponent_cap_error(what: str, **details) -> ResourceLimitError:
    """`what`, an exponent, exceeds MAX_EXPONENT in absolute value."""
    return ResourceLimitError(
        f"{what} exceeds the cap MAX_EXPONENT = {MAX_EXPONENT}",
        cap="MAX_EXPONENT", limit=MAX_EXPONENT, **details,
    )


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIME_CAP."""
    if n >= PRIME_CAP:
        raise ResourceLimitError(
            f"primality of {n} is decided only below the cap "
            f"PRIME_CAP = {PRIME_CAP}",
            cap="PRIME_CAP", limit=PRIME_CAP,
        )
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense univariate polynomials over the integers


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    """Product as a list (nonzero inputs have a nonzero product)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pscale(a, c):
    return tuple(c * x for x in a)


def _pexquo(a, b):
    """a / b for integer polynomials when b divides a with an integer
    quotient (b primitive, or b monic)."""
    r = list(a)
    nb, lb = len(b), b[-1]
    out = [0] * (len(a) - nb + 1)
    for k in range(len(out) - 1, -1, -1):
        c = r[k + nb - 1] // lb
        out[k] = c
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    return tuple(out)


def _pprim(a):
    """Primitive part with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple(x // c for x in a)


def _prem(a, b):
    """A pseudo-remainder of a by b (len(a) >= len(b)): lc(b)^k * a mod b."""
    r = list(a)
    nb, lb = len(b), b[-1]
    while len(r) >= nb:
        c = r[-1]
        k = len(r) - nb
        r = [lb * x for x in r]
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _pgcd(a, b):
    """Primitive gcd of two nonzero integer polynomials by primitive PRS
    (Collins 1967, Brown 1971); (1,) when they are coprime over Q[q]."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _pprim(a), _pprim(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _pprim(r)
    return (1,)


def _is_monomial(a):
    return not any(a[:-1])


def cyclotomic_polynomial(l: int):
    """Integer coefficients of the l-th cyclotomic polynomial, ascending
    degree: x^m - 1 divided by the Phi_d of its proper divisors d."""
    if l < 1:
        raise BadParamsError("cyclotomic order must be >= 1")
    phi = {}
    for m in range(1, l + 1):
        if l % m:
            continue
        num = (-1,) + (0,) * (m - 1) + (1,)
        for d, phi_d in phi.items():
            if m % d == 0:
                num = _pexquo(num, phi_d)
        phi[m] = num
    return phi[l]


# ---------------------------------------------------------------------------
# rational values (num, den)


def _q_add(a, b):
    """Sum of two canonical pairs. Over unequal denominators only the
    gcd of their common factor with the new numerator is taken
    (Henrici; Knuth, TAOCP vol. 2, 4.5.1)."""
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        if d1 == 1:
            return n1 + n2, 1
        n = n1 + n2
        g = gcd(n, d1)
        return (n // g, d1 // g) if g != 1 else (n, d1)
    # the sum of values in lowest terms over unequal denominators is
    # never zero
    g = gcd(d1, d2)
    if g == 1:
        return n1 * d2 + n2 * d1, d1 * d2
    s = d1 // g
    t = n1 * (d2 // g) + n2 * s
    g = gcd(t, g)
    return (t // g, s * (d2 // g)) if g != 1 else (t, s * d2)


def _q_mul(a, b):
    """Product of two canonical pairs, cancelling each numerator against
    the other denominator first. A zero factor (0, 1) cancels the other
    denominator to 1, so a zero product comes out as (0, 1)."""
    (n1, d1), (n2, d2) = a, b
    if d1 == 1 and d2 == 1:
        return n1 * n2, 1
    g = gcd(n1, d2)
    if g != 1:
        n1, d2 = n1 // g, d2 // g
    g = gcd(n2, d1)
    if g != 1:
        n2, d1 = n2 // g, d1 // g
    return n1 * n2, d1 * d2


# ---------------------------------------------------------------------------
# cyclotomic(l) values (coeffs, den)

_CZERO = ((), 1)


def _cyc_make(c, den):
    """Canonical value of c/den; c without trailing zeros."""
    if not c:
        return _CZERO
    if den < 0:
        c, den = [-x for x in c], -den
    if den != 1:
        g = gcd(den, *c)
        if g != 1:
            return tuple(x // g for x in c), den // g
    return tuple(c), den


def _cyc_reduce(r, red):
    """Reduce a coefficient list of degree <= len(red) + phi - 1 modulo
    Phi_l, where red[k] = q^(phi+k) mod Phi_l; trailing zeros removed."""
    n = len(red[0])
    if len(r) > n:
        out = r[:n]
        for k in range(n, len(r)):
            x = r[k]
            if x:
                for i, t in enumerate(red[k - n]):
                    out[i] += x * t
        r = out
    while r and not r[-1]:
        r.pop()
    return r


def _times_q(a, top):
    """q * a modulo Phi_l for a of length phi, where top = q^phi mod Phi_l."""
    out = [0] + a[:-1]
    for i, t in enumerate(top):
        out[i] += a[-1] * t
    return out


def _cyc_add(a, b):
    (c1, d1), (c2, d2) = a, b
    if d1 == d2:
        c = _padd(c1, c2)
        return _cyc_make(c, d1) if d1 != 1 else (c, 1)
    return _cyc_make(_padd(_pscale(c1, d2), _pscale(c2, d1)), d1 * d2)


def _cyc_mul(a, b, red):
    (c1, d1), (c2, d2) = a, b
    r = _cyc_reduce(_pmul(c1, c2), red)
    d = d1 * d2
    return _cyc_make(r, d) if d != 1 else (tuple(r), 1)


def _cyc_inv(a, l, red, pows):
    """1/a through the norm: a times the product of its Galois conjugates
    q -> q^j (1 < j < l, gcd(j, l) = 1) is a nonzero integer. pows[m] is
    q^m mod Phi_l."""
    c, den = a
    n = len(red[0])
    conj_prod = [1]
    for j in range(2, l):
        if gcd(j, l) != 1:
            continue
        conj = [0] * n
        for i, x in enumerate(c):
            if x:
                for t, y in enumerate(pows[i * j % l]):
                    conj[t] += x * y
        conj_prod = _cyc_reduce(_pmul(conj_prod, conj), red)
    (norm,) = _cyc_reduce(_pmul(c, conj_prod), red)
    return _cyc_make([den * x for x in conj_prod], norm)


# ---------------------------------------------------------------------------
# ratfunc values (num, den)

_RZERO = ((), (1,))


def _rf_make(num, den, factors=()):
    """Canonical value of num/den (integer coefficient sequences). If
    num/den is the product of the canonical values `factors`, one of them
    c*q^i/(d*q^j) (a constant, q or 1/q), the other's coprime numerator
    and denominator gain no common factor but a power of q and the
    content, so no gcd is taken."""
    if not den:
        raise DivisionByZeroError("zero denominator")
    if not num:
        return _RZERO
    if not num[0] and not den[0]:  # strip the common power of q
        v = 1
        while not num[v] and not den[v]:
            v += 1
        num, den = num[v:], den[v:]
    if not (_is_monomial(den) or _is_monomial(num)
            or any(_is_monomial(n) and _is_monomial(d) for n, d in factors)):
        g = _pgcd(num, den)
        if len(g) > 1:
            num, den = _pexquo(num, g), _pexquo(den, g)
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        return tuple(x // c for x in num), tuple(x // c for x in den)
    return tuple(num), tuple(den)


def _rf_add(a, b):
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        return _rf_make(_padd(n1, n2), d1)
    return _rf_make(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))


def _rf_mul(a, b):
    (n1, d1), (n2, d2) = a, b
    return _rf_make(_pmul(n1, n2), _pmul(d1, d2), (a, b))


# ---------------------------------------------------------------------------
# value operations, one set per field kind


class FieldOps:
    """The arithmetic of one field on the raw values Scalars wrap; `inv`
    raises DivisionByZeroError on zero. The kernels compute with it and
    box a value in a Scalar only where it leaves them."""

    __slots__ = ("zero", "one", "add", "sub", "neg", "mul", "inv", "is_zero",
                 "from_int")

    def __init__(self, zero, one, add, sub, neg, mul, inv, is_zero, from_int):
        self.zero, self.one = zero, one
        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.inv, self.is_zero, self.from_int = inv, is_zero, from_int

    def pow(self, v, n: int):
        """v^n by left-to-right squaring: one squaring per bit of n after
        the first and one product per further set bit, so n = 1 takes
        none."""
        if n < 0:
            v, n = self.inv(v), -n
        elif n == 0:
            return self.one
        mul, out = self.mul, v
        for bit in bin(n)[3:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, v)
        return out


def _pair_ops(zero, one, add, mul, neg, inv, from_int):
    """The operations of a kind whose values are pairs, the first part
    empty or 0 exactly at zero: rational, cyclotomic and ratfunc. `inv`
    inverts a nonzero value."""
    def checked_inv(a):
        if not a[0]:
            raise DivisionByZeroError("division by zero")
        return inv(a)

    return FieldOps(zero, one, add, lambda a, b: add(a, neg(b)), neg, mul, checked_inv,
                    lambda a: not a[0], from_int)


def _prime_ops(p):
    def inv(a):
        if not a:
            raise DivisionByZeroError("division by zero")
        return pow(a, -1, p)

    return FieldOps(0, 1, lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                    lambda a: -a % p, lambda a, b: a * b % p, inv,
                    lambda a: not a, lambda n: n % p)


def _cyclotomic_ops(field):
    tables = []  # the reduction table, made at the first product

    def mul(a, b):
        if not tables:
            tables.append(field._reduction())
        return _cyc_mul(a, b, tables[0])

    return _pair_ops(_CZERO, ((1,), 1), _cyc_add, mul, lambda a: (_pneg(a[0]), a[1]),
                     lambda a: _cyc_inv(a, field.param, field._reduction(), field._powers()),
                     lambda n: ((n,), 1) if n else _CZERO)


# ---------------------------------------------------------------------------


class FieldDescriptor:
    """A field kind and its parameter (the prime, or the cyclotomic
    order). Equal descriptors hash equal; the cache takes no part."""

    def __init__(self, kind: str, param: int | None = None):
        self.kind = kind
        self.param = param
        # zero, one and the cyclotomic tables, built on first use
        self._cache = {}
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

    def __eq__(self, other):
        if other.__class__ is not FieldDescriptor:
            return NotImplemented
        return self.kind == other.kind and self.param == other.param

    def __hash__(self):
        return hash((self.kind, self.param))

    def __repr__(self):
        return f"FieldDescriptor(kind={self.kind!r}, param={self.param!r})"

    # -- constants ----------------------------------------------------------

    def zero(self) -> "Scalar":
        z = self._cache.get(0)
        return z if z is not None else self.from_int(0)

    def one(self) -> "Scalar":
        u = self._cache.get(1)
        return u if u is not None else self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        if n == 0 or n == 1:  # shared, since scalars are immutable
            c = self._cache.get(n)
            if c is None:
                c = self._cache[n] = Scalar(self, self.ops.from_int(n))
            return c
        return Scalar(self, self.ops.from_int(n))

    @cached_property
    def ops(self) -> FieldOps:
        """The value operations of this field, made on first use; the
        cyclotomic tables wait for the first product or inverse."""
        k = self.kind
        if k == RATIONAL:
            return _pair_ops((0, 1), (1, 1), _q_add, _q_mul, lambda a: (-a[0], a[1]),
                             lambda a: (a[1], a[0]) if a[0] > 0 else (-a[1], -a[0]),
                             lambda n: (n, 1))
        if k == PRIME:
            return _prime_ops(self.param)
        if k == RATFUNC_Q:
            return _pair_ops(
                _RZERO, ((1,), (1,)), _rf_add, _rf_mul, lambda a: (_pneg(a[0]), a[1]),
                lambda a: (a[1], a[0]) if a[0][-1] > 0 else (_pneg(a[1]), _pneg(a[0])),
                lambda n: ((n,), (1,)) if n else _RZERO)
        return _cyclotomic_ops(self)

    def from_fraction(self, f) -> "Scalar":
        """The image of a rational `f`, any value with integer `numerator`
        and `denominator` in lowest terms (the denominator positive), such
        as an int or a `fractions.Fraction`."""
        if self.kind == RATIONAL:
            return Scalar(self, (f.numerator, f.denominator))
        if self.kind == PRIME:
            p = self.param
            den = f.denominator % p
            if den == 0:
                raise DivisionByZeroError(f"{f} has no image in GF({p})")
            return Scalar(self, (f.numerator * pow(den, -1, p)) % p)
        if f == 0:
            return Scalar(self, _RZERO if self.kind == RATFUNC_Q else _CZERO)
        if self.kind == RATFUNC_Q:
            return Scalar(self, ((f.numerator,), (f.denominator,)))
        return Scalar(self, ((f.numerator,), f.denominator))

    def q(self) -> "Scalar":
        """The distinguished scalar q (ratfunc and cyclotomic fields only)."""
        if self.kind == RATFUNC_Q:
            return Scalar(self, ((0, 1), (1,)))
        if self.kind == CYCLOTOMIC:
            return Scalar(self, (tuple(_cyc_reduce([0, 1], self._reduction())), 1))
        raise FieldMismatchError(f"field {self} has no element named q")

    def _reduction(self):
        """red[k] = q^(phi+k) mod Phi_l for k < max(phi - 1, 1), phi the
        degree of Phi_l: enough to reduce any product of two reduced
        values, and q itself. Integral because Phi_l is monic."""
        red = self._cache.get("red")
        if red is None:
            phi = cyclotomic_polynomial(self.param)
            red = [[-c for c in phi[:-1]]]
            for _ in range(max(len(phi) - 2, 1) - 1):
                red.append(_times_q(red[-1], red[0]))
            red = self._cache["red"] = tuple(tuple(r) for r in red)
        return red

    def _powers(self):
        """q^m mod Phi_l for m < l, the Galois conjugation table."""
        pows = self._cache.get("pows")
        if pows is None:
            top = list(self._reduction()[0])
            pows = [[1] + [0] * (len(top) - 1)]
            for _ in range(self.param - 1):
                pows.append(_times_q(pows[-1], top))
            pows = self._cache["pows"] = tuple(tuple(p) for p in pows)
        return pows

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


class Scalar:
    """An exact field element in canonical form."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        self.field = field
        self.value = value

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.value == other.value and (
            self.field is other.field or self.field == other.field
        )

    def __hash__(self):
        return hash((self.field, self.value))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        v = self.value
        return not v[0] if v.__class__ is tuple else not v

    def is_one(self) -> bool:
        return self == self.field.one()

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine {self.field} with {other.field}"
            )

    def __add__(self, other):
        f = self.field
        if other.__class__ is not Scalar or other.field is not f:
            self._check(other)
        return Scalar(f, f.ops.add(self.value, other.value))

    def __neg__(self):
        f = self.field
        return Scalar(f, f.ops.neg(self.value))

    def __sub__(self, other):
        f = self.field
        if other.__class__ is not Scalar or other.field is not f:
            self._check(other)
        return Scalar(f, f.ops.sub(self.value, other.value))

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not Scalar or other.field is not f:
            self._check(other)
        return Scalar(f, f.ops.mul(self.value, other.value))

    def inv(self):
        f = self.field
        return Scalar(f, f.ops.inv(self.value))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, n: int):
        """self^n, by `FieldOps.pow`."""
        f = self.field
        return Scalar(f, f.ops.pow(self.value, n))

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        k = self.field.kind
        try:
            if k == PRIME:
                return str(self.value)
            if k == RATIONAL:
                n, d = self.value
                return str(n) if d == 1 else f"{n}/{d}"
            if k == CYCLOTOMIC:
                c, d = self.value
                return _poly_str([_over(x, d) for x in c])
            n, d = self.value
            lc = d[-1]
            ns = _poly_str([_over(x, lc) for x in n])
            if len(d) == 1:
                return ns
            return f"({ns})/({_poly_str([_over(x, lc) for x in d])})"
        except ValueError:  # an integer past int_max_str_digits
            raise _digits_limit_error("a coefficient to print") from None

    __repr__ = __str__


def unbox(terms: dict) -> dict:
    """The raw values of a dict of Scalars, under the same keys."""
    return {k: c.value for k, c in terms.items()}


def box(field: FieldDescriptor, values: dict) -> dict:
    """The Scalars of `field` with the raw values of a dict, under the
    same keys."""
    return {k: Scalar(field, v) for k, v in values.items()}


def _over(n: int, d: int):
    """n/d for d > 0 in lowest terms: the int when d divides n, else the
    text ``n/d``, signed as ``str(Fraction(n, d))`` prints it."""
    g = gcd(n, d)
    return n // g if g == d else f"{n // g}/{d // g}"


def _poly_str(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "q" if i == 1 else f"q^{i}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{c}*{var}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


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
        """An integer literal; one longer than the interpreter converts
        (sys.get_int_max_str_digits) is a resource limit."""
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.fail("expected integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            raise _digits_limit_error(
                f"integer literal at position {start}", pos=start
            ) from None

    def exponent_literal(self) -> int:
        """An exponent after `^`; its absolute value is capped at
        MAX_EXPONENT."""
        start = self.pos
        try:
            n = self.int_literal()
        except ResourceLimitError:  # too many digits, far above the cap
            n = None
        if n is None or abs(n) > MAX_EXPONENT:
            raise _exponent_cap_error(f"exponent at position {start}", pos=start)
        return n

    def name(self) -> str:
        """A letter and the letters, digits and '_' after it; '' when no
        letter comes next."""
        if not self.peek().isalpha():
            return ""
        start = self.pos
        self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]

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
            name = self.name()
            if name == "q":
                return self.field.q()
            raise FieldMismatchError(
                f"symbol {name!r} is not an element of {self.field}"
            )
        self.fail("expected expression")


def scalar_parse(field: FieldDescriptor, text: str) -> Scalar:
    """Parse an exact field element; parse-print-parse is the identity."""
    return _ScalarParser(field, text).parse()
