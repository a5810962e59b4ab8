"""Dense univariate polynomials over a coefficient field.

A polynomial is a list of raw values of one `FieldDescriptor`, the
values Scalars wrap, in ascending degree, with no trailing zeros; the
zero polynomial is `[]`. The arithmetic is the field's `ops`. Every
function takes the field last and returns a new list; only `trim` works
in place. The integer polynomials that store ratfunc and cyclotomic
scalar values live in `scalars`, over Z.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import BadParamsError
from .scalars import PRIME, RATIONAL, FieldDescriptor, is_prime


def trim(p: list, field: FieldDescriptor) -> list:
    """Drop trailing zeros in place; returns p."""
    is_zero = field.ops.is_zero
    while p and is_zero(p[-1]):
        p.pop()
    return p


def sub(a: list, b: list, field: FieldDescriptor) -> list:
    ops = field.ops
    minus = ops.sub
    out = list(a) + [ops.zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = minus(out[i], c)
    return trim(out, field)


def mul(a: list, b: list, field: FieldDescriptor) -> list:
    if not a or not b:
        return []
    ops = field.ops
    add, times = ops.add, ops.mul
    out = [ops.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], times(x, y))
    return trim(out, field)


def divmod(a: list, b: list, field: FieldDescriptor) -> tuple:
    """(quotient, remainder) of a by a nonzero b."""
    ops = field.ops
    minus, times, is_zero = ops.sub, ops.mul, ops.is_zero
    a = list(a)
    out = [ops.zero] * max(0, len(a) - len(b) + 1)
    inv = ops.inv(b[-1])
    while len(a) >= len(b) and a:
        if is_zero(a[-1]):
            a.pop()
            continue
        c = times(a[-1], inv)
        k = len(a) - len(b)
        out[k] = c
        for i, bc in enumerate(b):
            a[k + i] = minus(a[k + i], times(c, bc))
        trim(a, field)
    return trim(out, field), a


def xgcd(a: list, b: list, field: FieldDescriptor) -> tuple:
    """(g, s, t) with s*a + t*b = g, g the monic gcd (or [] if a = b = 0)."""
    ops = field.ops
    r0, r1 = list(a), list(b)
    s0, s1 = [ops.one], []
    t0, t1 = [], [ops.one]
    while r1:
        q, r = divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, field), field)
        t0, t1 = t1, sub(t0, mul(q, t1, field), field)
    if r0:
        inv, times = ops.inv(r0[-1]), ops.mul
        r0 = [times(c, inv) for c in r0]
        s0 = [times(c, inv) for c in s0]
        t0 = [times(c, inv) for c in t0]
    return r0, s0, t0


def powmod(base: list, e: int, f: list, field: FieldDescriptor) -> list:
    """base^e mod f by square-and-multiply; f of degree >= 1."""
    out = [field.ops.one]
    base = divmod(base, f, field)[1]
    while e:
        if e & 1:
            out = divmod(mul(out, base, field), f, field)[1]
        e >>= 1
        if e:
            base = divmod(mul(base, base, field), f, field)[1]
    return out


def evaluate(p: list, x, field: FieldDescriptor):
    """p(x) by Horner's rule."""
    ops = field.ops
    add, times = ops.add, ops.mul
    out = ops.zero
    for c in reversed(p):
        out = add(times(out, x), c)
    return out


def derivative(p: list, field: FieldDescriptor) -> list:
    ops = field.ops
    times, from_int = ops.mul, ops.from_int
    return trim([times(c, from_int(k)) for k, c in enumerate(p)][1:], field)


def squarefree(f: list, field: FieldDescriptor) -> list:
    """Pairs (g, m), m ascending, with f = lc(f) * prod g^m and the g
    monic, squarefree, pairwise coprime and of degree >= 1; f is nonzero.

    One gcd chain for every characteristic, Musser's (1971) with the
    p-th root step of the finite-field algorithm (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 14): with c = gcd(f, f') and
    w = f / c, the step for m takes y = gcd(w, c), finds the factor of
    multiplicity m as w / y and goes on with w = y, c = c / y. In
    characteristic 0 that ends with c = 1. Over GF(p) the factors whose
    multiplicity p divides never reach w, and what is left of c is a
    p-th power u(x)^p = u(x^p), whose p-th root u recurses with the
    multiplicities times p; with f' = 0 that is all of f.
    """
    ops = field.ops
    inv, times = ops.inv(f[-1]), ops.mul
    f = [times(c, inv) for c in f]
    c = xgcd(f, derivative(f, field), field)[0]
    w = divmod(f, c, field)[0]
    out, m = [], 1
    while len(w) > 1:
        y = xgcd(w, c, field)[0]
        g = divmod(w, y, field)[0]
        if len(g) > 1:
            out.append((g, m))
        w, c = y, divmod(c, y, field)[0]
        m += 1
    if len(c) > 1:  # characteristic p; in GF(p), a^p = a
        p = field.characteristic()
        out += [(g, k * p) for g, k in squarefree(c[::p], field)]
        out.sort(key=lambda part: part[1])
    return out


def factorization(f: list, field: FieldDescriptor):
    """Pairs (h, m) with f = lc(f) * prod h^m, the h monic, irreducible
    and distinct; None when `irreducible` leaves a factor undecided.

    Each g of `squarefree` is split by `roots` into linear factors and a
    remainder without roots, which must be irreducible. The linear
    factors come first, in the order `roots` gives the roots of f, then
    the remainders by ascending m."""
    ops = field.ops
    one, neg, is_zero = ops.one, ops.neg, ops.is_zero
    rest = {m: g for g, m in squarefree(f, field)}
    radical = [one]  # the roots of f, at a lower degree than f
    for g in rest.values():
        radical = mul(radical, g, field)
    out = []
    for r in roots(radical, field):
        m = next(m for m, g in rest.items() if is_zero(evaluate(g, r, field)))
        rest[m] = divmod(rest[m], [neg(r), one], field)[0]
        out.append(([neg(r), one], m))
    for m, h in sorted(rest.items()):
        if len(h) > 1:
            if not _rootless_irreducible(h, field):
                return None
            out.append((h, m))
    return out


def roots(f: list, field: FieldDescriptor) -> list:
    """Distinct roots of a nonzero polynomial in the coefficient field.

    GF(p): all of them, ascending. Q: all of them, in the order the
    rational-root test meets them, found mod a prime and lifted; see
    `_rational_roots`. Q(q) and cyclotomic fields:
    only the integers -3..3 are tried, so other roots are missed.
    """
    f = trim(list(f), field)
    if not f:
        raise BadParamsError("the zero polynomial vanishes everywhere")
    if field.kind == PRIME:
        return _prime_roots(f, field)
    if field.kind == RATIONAL:
        return _rational_roots(f, field)
    ops = field.ops
    probes = (ops.from_int(k) for k in range(-3, 4))
    return [c for c in probes if ops.is_zero(evaluate(f, c, field))]


def _prime_roots(f, field):
    """The roots of f, ascending. The linear factors of f are
    g = gcd(f, x^p - x), split by gcd(g, (x + a)^((p-1)/2) - 1) for
    a = 0, 1, ... (equal-degree splitting, deterministic). The values of
    GF(p) are the ints 0..p-1, in the order of the field's elements."""
    ops = field.ops
    p = field.param
    if p == 2:
        return [r for r in (ops.zero, ops.one) if ops.is_zero(evaluate(f, r, field))]
    if len(f) == 1:
        return []
    one = ops.one
    x = [ops.zero, one]
    g = xgcd(f, sub(powmod(x, p, f, field), x, field), field)[0]
    out, todo = [], [g]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            out.append(ops.neg(g[0]))
        elif len(g) > 2:
            for a in range(p):
                w = sub(powmod([ops.from_int(a), one], (p - 1) // 2, g, field),
                        [one], field)
                h = xgcd(g, w, field)[0]
                if 1 < len(h) < len(g):
                    todo += [h, divmod(g, h, field)[0]]
                    break
    return sorted(out)


def _rational_roots(f, field):
    """The rational roots of f: 0 first, then by (|numerator|,
    denominator), the positive one of a pair first, the order of the
    rational-root test. The roots are those of the squarefree part g of
    f with its denominators cleared. They are found mod a prime p that
    divides neither lc(g) nor the discriminant of g, then Hensel-lifted
    mod p^(2^k) past 2 lc(g) B, B = 1 + max|g_i / lc(g)| the Cauchy bound:
    a root n/d of g has d dividing lc(g), so lc(g) n / d is an integer of
    absolute value at most lc(g) B, and it is read off the lifted root
    in the symmetric range. Each candidate is checked exactly. A rational
    value is the pair (numerator, denominator) in lowest terms."""
    ops = field.ops
    is_zero = ops.is_zero
    out = []
    if is_zero(f[0]):
        out.append(ops.zero)
        while is_zero(f[0]):
            f = f[1:]
    if len(f) == 1:
        return out
    g = divmod(f, xgcd(f, derivative(f, field), field)[0], field)[0]
    den = lcm(*(d for _, d in g))
    ints = [n * (den // d) for n, d in g]
    lc = ints[-1]
    p = 1
    while True:
        p += 1
        if lc % p and is_prime(p):
            gp = FieldDescriptor(PRIME, p)
            image = [gp.ops.from_int(c) for c in ints]
            if len(xgcd(image, derivative(image, gp), gp)[0]) == 1:
                break
    slopes = [k * c for k, c in enumerate(ints)][1:]

    def value(coeffs, x, m):  # coeffs(x) mod m, by Horner's rule
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % m
        return acc

    lifted, m = _prime_roots(image, gp), p
    bound = 2 * (abs(lc) + max(map(abs, ints[:-1])))
    while m <= bound:  # Newton's step doubles the p-adic precision
        m *= m
        lifted = [(r - value(ints, r, m) * pow(value(slopes, r, m), -1, m)) % m
                  for r in lifted]
    found = []
    for r in lifted:
        n = lc * r % m
        if 2 * n > m:
            n -= m
        common = gcd(n, lc) if lc > 0 else -gcd(n, lc)
        n, d = n // common, lc // common
        if is_zero(evaluate(f, (n, d), field)):
            found.append((abs(n), d, n < 0, (n, d)))
    return out + [cand for *_, cand in sorted(found)]


def irreducible(f: list, field: FieldDescriptor):
    """True, False or None (undecided) for a polynomial without trailing
    zeros. Decided at degree <= 1, whenever `roots` finds a root, and at
    degrees 2 and 3 over GF(p) and Q; otherwise None."""
    deg = len(f) - 1
    if deg <= 1:
        return deg == 1
    if roots(f, field):
        return False
    return _rootless_irreducible(f, field)


def _rootless_irreducible(f: list, field: FieldDescriptor):
    """True or None (undecided) for f of degree >= 1 in which `roots`
    found no root. A linear f is irreducible in every field (over Q(q)
    and the cyclotomic fields `roots` misses a root such as 5 or q). A
    factorization of a quadratic or a cubic has a linear factor, and over
    GF(p) and Q `roots` finds every root, so f is irreducible there at
    degrees 2 and 3; otherwise None."""
    if len(f) == 2 or (len(f) <= 4 and field.kind in (PRIME, RATIONAL)):
        return True
    return None
