"""Dense univariate polynomials over a coefficient field.

A polynomial is a list of `Scalar`s of one `FieldDescriptor`, in
ascending degree, with no trailing zeros; the zero polynomial is `[]`.
Every function takes the field last and returns a new list; only `trim`
works in place. The integer polynomials that store ratfunc and
cyclotomic scalar values live in `scalars`, over Z.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .errors import BadParamsError
from .scalars import PRIME, RATIONAL, FieldDescriptor, Scalar


def trim(p: list) -> list:
    """Drop trailing zeros in place; returns p."""
    while p and p[-1].is_zero():
        p.pop()
    return p


def sub(a: list, b: list, field: FieldDescriptor) -> list:
    out = list(a) + [field.zero()] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return trim(out)


def mul(a: list, b: list, field: FieldDescriptor) -> list:
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def divmod(a: list, b: list, field: FieldDescriptor) -> tuple:
    """(quotient, remainder) of a by a nonzero b."""
    a = list(a)
    out = [field.zero()] * max(0, len(a) - len(b) + 1)
    inv = b[-1].inv()
    while len(a) >= len(b) and a:
        if a[-1].is_zero():
            a.pop()
            continue
        c = a[-1] * inv
        k = len(a) - len(b)
        out[k] = c
        for i, bc in enumerate(b):
            a[k + i] = a[k + i] - c * bc
        trim(a)
    return trim(out), a


def xgcd(a: list, b: list, field: FieldDescriptor) -> tuple:
    """(g, s, t) with s*a + t*b = g, g the monic gcd (or [] if a = b = 0)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, field), field)
        t0, t1 = t1, sub(t0, mul(q, t1, field), field)
    if r0:
        inv = r0[-1].inv()
        r0 = [c * inv for c in r0]
        s0 = [c * inv for c in s0]
        t0 = [c * inv for c in t0]
    return r0, s0, t0


def powmod(base: list, e: int, f: list, field: FieldDescriptor) -> list:
    """base^e mod f by square-and-multiply; f of degree >= 1."""
    out = [field.one()]
    base = divmod(base, f, field)[1]
    while e:
        if e & 1:
            out = divmod(mul(out, base, field), f, field)[1]
        e >>= 1
        if e:
            base = divmod(mul(base, base, field), f, field)[1]
    return out


def evaluate(p: list, x: Scalar, field: FieldDescriptor) -> Scalar:
    """p(x) by Horner's rule."""
    out = field.zero()
    for c in reversed(p):
        out = out * x + c
    return out


def roots(f: list, field: FieldDescriptor) -> list:
    """Distinct roots of a nonzero polynomial in the coefficient field.

    GF(p): all of them, ascending. Q: all of them, by the rational-root
    test, in the order the test meets them. Q(q) and cyclotomic fields:
    only the integers -3..3 are tried, so other roots are missed.
    """
    f = trim(list(f))
    if not f:
        raise BadParamsError("the zero polynomial vanishes everywhere")
    if field.kind == PRIME:
        return _prime_roots(f, field)
    if field.kind == RATIONAL:
        return _rational_roots(f, field)
    probes = (field.from_int(k) for k in range(-3, 4))
    return [c for c in probes if evaluate(f, c, field).is_zero()]


def _prime_roots(f, field):
    """The roots of f, ascending. The linear factors of f are
    g = gcd(f, x^p - x), split by gcd(g, (x + a)^((p-1)/2) - 1) for
    a = 0, 1, ... (equal-degree splitting, deterministic)."""
    p = field.param
    if p == 2:
        return [r for r in (field.zero(), field.one())
                if evaluate(f, r, field).is_zero()]
    if len(f) == 1:
        return []
    one = field.one()
    x = [field.zero(), one]
    g = xgcd(f, sub(powmod(x, p, f, field), x, field), field)[0]
    out, todo = [], [g]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            out.append(-g[0])
        elif len(g) > 2:
            for a in range(p):
                w = sub(powmod([field.from_int(a), one], (p - 1) // 2, g, field),
                        [one], field)
                h = xgcd(g, w, field)[0]
                if 1 < len(h) < len(g):
                    todo += [h, divmod(g, h, field)[0]]
                    break
    return sorted(out, key=lambda r: r.value)


def _rational_roots(f, field):
    den = lcm(*(c.value[1] for c in f))
    ints = [n * (den // d) for n, d in (c.value for c in f)]
    out = []
    if ints[0] == 0:
        out.append(field.zero())
        while ints[0] == 0:
            ints.pop(0)
    for pp in _divisors(abs(ints[0])):
        for qq in _divisors(abs(ints[-1])):
            for sign in (1, -1):
                g = gcd(pp, qq)
                cand = Scalar(field, (sign * pp // g, qq // g))
                if cand not in out and evaluate(f, cand, field).is_zero():
                    out.append(cand)
    return out


def _divisors(n: int) -> list:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _is_square(r: Scalar) -> bool:
    """Whether a rational is the square of a rational."""
    n, d = r.value
    return n >= 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def irreducible(f: list, field: FieldDescriptor):
    """True, False or None (undecided) for a polynomial without trailing
    zeros. Decided at degree <= 1, whenever `roots` finds a root, and at
    degrees 2 and 3 over GF(p) and Q; otherwise None."""
    deg = len(f) - 1
    if deg <= 1:
        return deg == 1
    if roots(f, field):
        return False
    if deg in (2, 3):
        if field.kind == PRIME:
            return True  # every root is found over GF(p)
        if field.kind == RATIONAL:
            if deg == 3:
                return True  # cubic with no rational root
            c, b, a = f
            return not _is_square(b * b - field.from_int(4) * a * c)
    return None
