"""Independent oracles for the benchmark's operations.

Nothing here imports skewcalc: products, centers, growth tables and
factorizations are computed from closed forms or by brute force over
plain Python integers and Fractions.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from fractions import Fraction
from math import comb, factorial

DIGESTS = pathlib.Path(__file__).resolve().parent / "digests.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# products


def weyl_product(lhs: dict, rhs: dict) -> dict:
    """Product in the Weyl algebra with y*x = x*y - 1, monomials (i, j)
    meaning x^i y^j, by y^m x^n = sum_k (-1)^k k! C(m,k) C(n,k)
    x^(n-k) y^(m-k). Coefficients are Fractions; zero terms dropped."""
    out = {}
    for (a, b), c1 in lhs.items():
        for (c, d), c2 in rhs.items():
            for k in range(min(b, c) + 1):
                coef = (-1) ** k * factorial(k) * comb(b, k) * comb(c, k)
                mono = (a + c - k, b + d - k)
                out[mono] = out.get(mono, 0) + Fraction(c1) * c2 * coef
    return {m: c for m, c in out.items() if c != 0}


def cyclotomic_poly(l: int) -> list:
    """Coefficients (ascending) of the l-th cyclotomic polynomial."""
    num = [-1] + [0] * (l - 1) + [1]
    for d in range(1, l):
        if l % d == 0:
            num = _exact_div(num, cyclotomic_poly(d))
    return num


def _exact_div(a: list, b: list) -> list:
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1] // b[-1]
        for j, cb in enumerate(b):
            a[k + j] -= q[k] * cb
    return q


def reduce_group_ring(vec: dict, l: int) -> list:
    """Reduce sum_r vec[r] * q^r (r mod l) modulo Phi_l. Returns the
    ascending coefficient list of length deg(Phi_l)."""
    phi = cyclotomic_poly(l)
    deg = len(phi) - 1
    work = [Fraction(0)] * l
    for r, c in vec.items():
        work[r % l] += c
    for k in range(l - 1, deg - 1, -1):
        c = work[k]
        if c:
            for j, pj in enumerate(phi):
                work[k - deg + j] -= c * pj
    return work[:deg]


def skew_product(lhs: dict, rhs: dict, qexp: dict, l: int) -> dict:
    """Product in a skew polynomial ring / quantum torus where
    x_j * x_i = q^qexp[(i, j)] * x_i * x_j (0-based i < j) and q has order
    l (l = 2 means q = -1). Coefficients are Fractions; the result maps
    monomial -> {q exponent mod l: coefficient}."""
    out = {}
    for m1, c1 in lhs.items():
        for m2, c2 in rhs.items():
            e = 0
            for (i, j), a in qexp.items():
                e += a * m1[j] * m2[i]
            mono = tuple(x + y for x, y in zip(m1, m2))
            slot = out.setdefault(mono, {})
            slot[e % l] = slot.get(e % l, 0) + Fraction(c1) * c2
    return out


def render(terms: dict, names: list) -> str:
    """Text of an element with rational coefficients, as reports print
    it: terms in descending graded-lex order, coefficient 1 omitted."""
    parts = []
    for m in sorted(terms, key=lambda m: (sum(map(abs, m)), m), reverse=True):
        c = terms[m]
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e)
        if not mono:
            parts.append(f"({c})" if "/" in str(c) else str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"({c})*{mono}" if "/" in str(c) else f"{c}*{mono}")
    if not parts:
        return "0"
    return parts[0] + "".join(
        f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])


# ---------------------------------------------------------------------------
# invariants


def growth_closed_form(kind: str, N: int) -> list:
    if kind == "weyl":
        return [(n + 1) * (n + 2) // 2 for n in range(N + 1)]
    if kind in ("poly3", "qweyl_t"):
        return [comb(n + 3, 3) for n in range(N + 1)]
    raise ValueError(kind)


def center_monomials(kind: str, d: int) -> set:
    """Leading monomials of the bounded center, known in closed form: the
    minus-one plane (any odd characteristic) has k[x^2, y^2], the Weyl
    algebra over GF(p) has k[x^p, y^p] (kind "weyl_gf<p>"), the quantum
    torus at a cube root of unity has exponents divisible by 3."""
    step = 2 if kind == "minus_one" else None
    if kind.startswith("weyl_gf"):
        step = int(kind[len("weyl_gf"):])
    if step:
        return {(i, j) for i in range(0, d + 1, step) for j in range(0, d + 1, step)
                if i + j <= d}
    if kind == "torus_l3":
        return {(i, j) for i in range(-d, d + 1) for j in range(-d, d + 1)
                if abs(i) + abs(j) <= d and i % 3 == 0 and j % 3 == 0}
    raise ValueError(kind)


def torus_index(n: int, l: int, a: list) -> int:
    """[Z^n : L] for L = {u : sum_j a_ij u_j = 0 mod l}, by counting the
    solutions in (Z/l)^n."""
    sols = 0
    for k in range(l ** n):
        u = [(k // l ** i) % l for i in range(n)]
        if all(sum(a[i][j] * u[j] for j in range(n)) % l == 0 for i in range(n)):
            sols += 1
    return l ** n // sols


# ---------------------------------------------------------------------------
# univariate polynomials with a known factorization


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def has_root_mod(f: list, p: int) -> bool:
    return any(sum(c * pow(r, i, p) for i, c in enumerate(f)) % p == 0
               for r in range(p))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def factored_modulus(rng, p: int | None, shape: list) -> tuple:
    """A monic f = prod f_i^e_i with distinct irreducible f_i of the given
    degrees. `shape` lists (degree, multiplicity); p None means Q.
    Returns (coefficients, factor count, nilradical dimension)."""
    factors = []
    used = set()
    for deg, mult in shape:
        while True:
            g = _random_irreducible(rng, p, deg)
            if tuple(g) not in used:
                break
        used.add(tuple(g))
        factors.extend([g] * mult)
    f = [1]
    for g in factors:
        f = poly_mul(f, g)
    if p is not None:
        f = [c % p for c in f]
    nil_dim = sum((mult - 1) * deg for deg, mult in shape)
    return f, len(shape), nil_dim


def _random_irreducible(rng, p, deg):
    if deg == 1:  # over Q, roots of one size keep the cost of a job steady
        r = rng.choice((-2, -1, 1, 2)) if p is None else rng.randrange(p)
        return [-r, 1]
    if p is None:
        if deg == 2:  # x^2 + k with k > 0, or x^2 - k with k not a square
            k = rng.choice([1, 2, 3])
            sign = 1 if k == 1 or rng.random() < 0.5 else -1
            return [sign * k, 0, 1]
        k = rng.choice([2, 3, 5, 6, 7])  # x^3 - k, k not a cube
        return [-k, 0, 0, 1]
    while True:  # degree <= 3 over GF(p): irreducible iff no root
        g = [rng.randrange(p) for _ in range(deg)] + [1]
        if not has_root_mod(g, p):
            return g
