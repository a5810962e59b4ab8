"""PBW presentations of iterated Ore algebras and their normal-form
arithmetic.

An algebra is given by an ordered list of generators g_1 < ... < g_m with
one swap rule per pair j > i,

    g_j * g_i = c * g_i * g_j + tail        (c != 0, deg tail <= 2)

plus optional elimination rules for consecutive pairs i < i+1,

    g_i * g_{i+1} = tail                    (tail avoids both generators)

as needed for localized algebras whose ordered product of two generators
collapses into the remaining ones (e.g. x*y landing in k[z^{+-1}]).
Standard monomials are exponent vectors; invertible generators may carry
negative exponents. Elements are finite Scalar-combinations of standard
monomials, always kept in normal form.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

from .errors import (
    AlgebraMismatchError,
    FieldMismatchError,
    NegativeExponentError,
    ResourceLimitError,
    ValidationError,
)
from .linalg import add_scaled, solve
from .scalars import FieldDescriptor, Scalar, _ScalarParser

Monomial = tuple  # exponent vector, one entry per generator

# heap pops plus eliminations `word_normal_form` may make per letter of its
# word; Weyl y^k*x^k takes k^3/3 + k^2/2 + 7k/6, within the cap up to k = 773
MAX_REWRITE_STEPS = 100_000

# `ore_extend` exhibits a preimage under sigma of every generator among the
# standard monomials of at most this degree
SIGMA_PREIMAGE_DEGREE = 3


def _rewrite_steps_error(limit: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"rewriting did not terminate within {limit} steps "
        f"(MAX_REWRITE_STEPS = {MAX_REWRITE_STEPS} per letter)",
        cap="MAX_REWRITE_STEPS", limit=limit)


def mono_degree(m: Monomial) -> int:
    return sum(abs(e) for e in m)


def grlex_key(m: Monomial):
    return (mono_degree(m), m)


class GeneratorInfo:
    def __init__(self, name: str, index: int, invertible: bool = False):
        self.name = name
        self.index = index  # 1-based position in the declared order
        self.invertible = invertible


class RewriteRule:
    """x_j * x_i = leading * x_i * x_j + tail. Rules are equal when all
    four parts are."""

    def __init__(self, j: int, i: int, leading: Scalar, tail: tuple):
        self.j = j  # 0-based, j > i
        self.i = i
        self.leading = leading
        self.tail = tail  # sorted ((monomial, Scalar), ...)

    def __eq__(self, other):
        if other.__class__ is not RewriteRule:
            return NotImplemented
        return (self.j, self.i, self.leading, self.tail) == (
            other.j, other.i, other.leading, other.tail)

    def tail_dict(self):
        return dict(self.tail)


class OreStep:
    """One step A[t; sigma, delta] of a tower, as `ore_extend` built and
    checked it: sigma and delta given on the generators of `base`."""

    def __init__(self, base: "Presentation", name: str, sigma_images: tuple,
                 delta_images: tuple):
        self.base = base
        self.name = name
        self.sigma_images = sigma_images  # one Element of `base` per base generator
        self.delta_images = delta_images


class ValidationReport:
    def __init__(self, ok: bool, failures: list, sigma_status: str | None = None):
        self.ok = ok
        self.failures = failures  # (code, witness)
        self.sigma_status = sigma_status  # BOUNDED_CERTIFIED when towers verify

    def first_failure(self):
        return self.failures[0] if self.failures else None


class Element:
    """A normal-form linear combination of standard monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "Presentation", terms: dict):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # -- basics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Max term degree; None for the zero element."""
        if not self.terms:
            return None
        return max(mono_degree(m) for m in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading_monomial(self):
        return max(self.terms, key=grlex_key) if self.terms else None

    def coefficient(self, m: Monomial) -> Scalar:
        return self.terms.get(m, self.algebra.field.zero())

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(self.sorted_terms())))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if other.algebra is not self.algebra:
            raise AlgebraMismatchError("elements live in different algebras")

    def __add__(self, other):
        self._check(other)
        return Element(self.algebra, add_scaled(dict(self.terms), other.terms))

    def __neg__(self):
        return Element(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar) -> "Element":
        if c.is_zero():
            return Element(self.algebra, {})
        return Element(self.algebra, {m: c * cm for m, cm in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        self._check(other)
        return self.algebra.multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        return self * _invert_scalar_element(other)

    def __pow__(self, n: int):
        """x^n; for n < 0, x must be a scalar times a monomial in
        invertible generators."""
        base = self if n >= 0 else _invert_monomial_element(self)
        n = abs(n)
        out = self.algebra.one()
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = [g.name for g in self.algebra.gens]
        parts = []
        for m, c in self.sorted_terms():
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, m)
                if e != 0
            ]
            mono = "*".join(factors)
            cs = str(c)
            if not mono:
                parts.append(f"({cs})" if ("+" in cs or "-" in cs[1:] or "/" in cs) else cs)
            elif c.is_one():
                parts.append(mono)
            elif ("+" in cs or "-" in cs[1:] or "/" in cs or "*" in cs or " " in cs):
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


class Presentation:
    """An immutable PBW presentation; arithmetic requires validation."""

    def __init__(
        self,
        field: FieldDescriptor,
        gens,
        rules=None,
        elim=None,
        flags=None,
        flag_provenance=None,
        family=None,
        notes=(),
    ):
        self.field = field
        self.gens = tuple(gens)
        names = [g.name for g in self.gens]
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be unique")
        for pos, g in enumerate(self.gens):
            if g.index != pos + 1:
                raise ValidationError("generator indices must be contiguous from 1")
        m = len(self.gens)
        table = {}
        for j in range(m):
            for i in range(j):
                table[(j, i)] = RewriteRule(j, i, field.one(), ())
        for rule in rules or ():
            table[(rule.j, rule.i)] = rule
        self.rules = table
        self.elim = {
            k: tuple(sorted(
                (v.items() if isinstance(v, dict) else v),
                key=lambda t: grlex_key(t[0]),
            ))
            for k, v in (elim or {}).items()
        }
        self.tower = ()  # OreSteps, set only by `ore_extend`
        self.flags = dict(flags or {})
        self.flag_provenance = dict(flag_provenance or {})
        self.family = family
        self.notes = tuple(notes)
        self._mul_cache = {}
        self._basis_cache = {}  # degree -> filtration_basis(degree)
        # degree cap -> {(a, b): live columns}, the table of
        # `divisor.divisor_closure`, which depends on the rules, the field
        # and the cap only
        self._closure_columns = {}
        self._rewriting = None
        self._report = None

    # -- flags --------------------------------------------------------------

    def has_flag(self, name: str) -> bool:
        return name in self.flags

    def flag(self, name: str):
        return self.flags.get(name)

    def with_flags(self, extra: dict, provenance="user") -> "Presentation":
        """A copy with `extra` added to the flags; `provenance` is one
        string for all of them or a dict with one per flag."""
        flags = dict(self.flags)
        prov = dict(self.flag_provenance)
        for k, v in extra.items():
            flags[k] = v
            prov[k] = provenance[k] if isinstance(provenance, dict) else provenance
        p = Presentation(
            self.field, self.gens,
            rules=list(self.rules.values()), elim=dict(self.elim),
            flags=flags, flag_provenance=prov,
            family=self.family, notes=self.notes,
        )
        p.tower = self.tower
        p._report = self._report
        p._rewriting = self._rewriting
        p._basis_cache = self._basis_cache
        p._closure_columns = self._closure_columns
        return p

    # -- element constructors ----------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {(0,) * len(self.gens): self.field.one()})

    def generator(self, name: str) -> Element:
        pos = self.gen_position(name)
        e = [0] * len(self.gens)
        e[pos] = 1
        return Element(self, {tuple(e): self.field.one()})

    def gen_inverse(self, name: str) -> Element:
        pos = self.gen_position(name)
        if not self.gens[pos].invertible:
            raise NegativeExponentError(f"generator {name} is not invertible")
        e = [0] * len(self.gens)
        e[pos] = -1
        return Element(self, {tuple(e): self.field.one()})

    def gen_position(self, name: str) -> int:
        for pos, g in enumerate(self.gens):
            if g.name == name:
                return pos
        raise KeyError(f"no generator named {name!r}")

    def monomial(self, exponents) -> Element:
        e = tuple(exponents)
        self._check_monomial(e)
        return Element(self, {e: self.field.one()})

    def from_terms(self, terms: dict) -> Element:
        for m in terms:
            self._check_monomial(m)
        return Element(self, terms)

    def _check_monomial(self, m: Monomial):
        if len(m) != len(self.gens):
            raise ValidationError("exponent vector has wrong length")
        for e, g in zip(m, self.gens):
            if e < 0 and not g.invertible:
                raise NegativeExponentError(
                    f"negative exponent on non-invertible generator {g.name}"
                )

    # -- rewriting core ------------------------------------------------------

    def _letters(self, m: Monomial):
        out = []
        for pos, e in enumerate(m):
            if e > 0:
                out.extend([(pos, 1)] * e)
            elif e < 0:
                out.extend([(pos, -1)] * (-e))
        return out

    def _elim_pair(self, e: Monomial):
        for (i, j) in self.elim:
            if e[i] > 0 and e[j] > 0:
                return (i, j)
        return None

    # Inside `word_normal_form` a letter (pos, sign) is the int code
    # 2*(m-1-pos), plus 1 for sign -1: higher generators get smaller codes,
    # so a word sorts before the words it rewrites to. Words are bytes
    # (tuples past 128 generators): bytes hash and compare fast, and
    # unlike short tuples are not kept on a free list once released.

    def _build_rewriting(self):
        """Letter decoding, letter codes, the word type, and the pair
        table: table[a][b] is None when the letter pair a*b is reduced,
        else a tuple of (factor, replacement word) with factor None
        standing for 1."""
        m = len(self.gens)
        word = bytes if 2 * m <= 256 else tuple
        letters = [None] * (2 * m)
        for pos, g in enumerate(self.gens):
            letters[2 * (m - 1 - pos)] = (pos, 1)
            if g.invertible:
                letters[2 * (m - 1 - pos) + 1] = (pos, -1)
        code = {letter: c for c, letter in enumerate(letters) if letter}
        one = self.field.one()

        def codes(mono):
            return word(code[letter] for letter in self._letters(mono))

        def entry(a, b):
            (g1, s1), (g2, s2) = a, b
            if g1 == g2 and s1 != s2:
                return ((None, word()),)
            if g1 <= g2:
                return None
            rule = self.rules[(g1, g2)]
            out = [(rule.leading if s1 == s2 else rule.leading.inv(), word((code[b], code[a])))]
            if s1 == 1 and s2 == 1:
                out.extend((ct, codes(mono_t)) for mono_t, ct in rule.tail)
            return tuple((None if f == one else f, rep) for f, rep in out)

        table = [
            [entry(a, b) if a and b else None for b in letters] for a in letters
        ]
        elim = {
            pair: tuple((None if ct == one else ct, codes(mono_t)) for mono_t, ct in tail)
            for pair, tail in self.elim.items()
        }
        return letters, code, word, table, elim

    def word_normal_form(self, word) -> dict:
        """Normalize a product of generator letters (gen position, +-1).

        Pending words wait in a dict that sums their coefficients; a heap
        hands out the longest word first, then the one whose earliest
        letters have the highest generators. A rewrite step leads to a
        shorter word or, unless a tail brings in a higher generator, a
        later one, so a word is rewritten once, after all its
        contributions are summed; a word reached again after that is
        queued again. A word with a single successor is followed
        directly, without the heap.

        Heap pops and eliminations are counted, and past MAX_REWRITE_STEPS
        per letter of `word` ResourceLimitError is raised; in between, steps only sort letters
        or cancel inverses, so rules that do not terminate cannot hang.
        """
        if self._rewriting is None:
            self._rewriting = self._build_rewriting()
        letters, code, as_word, table, elim = self._rewriting
        m = len(self.gens)
        w = as_word(code[letter] for letter in word)
        coef = self.field.one()
        lo = 0  # no reducible pair starts before lo
        pending = {}
        heap = []
        result = {}
        steps = 0
        limit = MAX_REWRITE_STEPS * max(len(w), 1)
        while True:
            while not coef.is_zero():
                succ = None
                for k in range(lo, len(w) - 1):
                    succ = table[w[k]][w[k + 1]]
                    if succ is not None:
                        break
                if succ is None:
                    # sorted; collapse to an exponent vector
                    e = [0] * m
                    for c in w:
                        pos, s = letters[c]
                        e[pos] += s
                    e = tuple(e)
                    pair = self._elim_pair(e) if elim else None
                    if pair is None:
                        cur = result.get(e)
                        result[e] = coef if cur is None else cur + coef
                        break
                    steps += 1
                    if steps > limit:
                        raise _rewrite_steps_error(limit)
                    # x_i*x_j stands where the x_j block of the sorted word starts
                    k = w.index(code[(pair[1], 1)]) - 1
                    succ = elim[pair]
                head, tail = w[:k], w[k + 2:]
                lo = k - 1 if k else 0
                if len(succ) == 1:
                    (f, rep), = succ
                    w = head + rep + tail
                    if f is not None:
                        coef = coef * f
                    continue
                for f, rep in succ:
                    nw = head + rep + tail
                    c = coef if f is None else coef * f
                    cur = pending.get(nw)
                    if cur is None:
                        pending[nw] = c
                        heappush(heap, (-len(nw), nw))
                    else:
                        pending[nw] = cur + c
                break
            if not heap:
                break
            steps += 1
            if steps > limit:
                raise _rewrite_steps_error(limit)
            w = heappop(heap)[1]
            coef = pending.pop(w)
            lo = 0
        return {e: c for e, c in result.items() if not c.is_zero()}

    def _mono_mul(self, a: Monomial, b: Monomial) -> dict:
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self.word_normal_form(self._letters(a) + self._letters(b))
            self._mul_cache[key] = hit
        return hit

    def multiply(self, x: Element, y: Element) -> Element:
        """x*y, the terms ca*cb*(ma*mb) summed by `linalg.add_scaled`."""
        self.require_validated()
        out = {}
        for ma, ca in x.terms.items():
            for mb, cb in y.terms.items():
                add_scaled(out, self._mono_mul(ma, mb), ca * cb)
        return Element(self, out)

    def require_validated(self):
        if self._report is None:
            self.validate()
        if not self._report.ok:
            code, witness = self._report.first_failure()
            raise ValidationError(
                f"presentation invalid: {code}: {witness}", code=code
            )

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Rule shapes, then confluence by Bergman's diamond lemma. The
        overlap check proves confluence only for a terminating rewriting
        system. For an Ore extension its overlaps t*g_j*g_i are the
        relations sigma must respect and delta must satisfy as a
        sigma-derivation, so a tower that passes is reported
        BOUNDED_CERTIFIED; sigma's bounded preimages were solved by
        `ore_extend` when each step was built."""
        if self._report is not None:
            return self._report
        failures = []
        # (a) rule shape
        for (j, i), rule in self.rules.items():
            if rule.leading.is_zero():
                failures.append(
                    ("INCONSISTENT_RULES", f"rule ({self.gens[j].name},{self.gens[i].name}) has zero leading scalar")
                )
            tail = rule.tail_dict()
            for mono, c in tail.items():
                if mono_degree(mono) > 2:
                    failures.append(
                        ("INCONSISTENT_RULES", f"rule ({self.gens[j].name},{self.gens[i].name}) tail degree > 2")
                    )
                for e, g in zip(mono, self.gens):
                    if e < 0 and not g.invertible:
                        failures.append(("INCONSISTENT_RULES", f"tail uses inverse of {g.name}"))
            if tail and (self.gens[j].invertible or self.gens[i].invertible):
                failures.append(
                    ("BAD_INVERSE",
                     f"rule ({self.gens[j].name},{self.gens[i].name}) has a tail but touches an invertible generator")
                )
        for (i, j), tail in self.elim.items():
            if j != i + 1:
                failures.append(("INCONSISTENT_RULES", "elimination pairs must be consecutive"))
            if self.gens[i].invertible or self.gens[j].invertible:
                failures.append(("BAD_INVERSE", "elimination pair generators must not be invertible"))
            for mono, c in tail:
                if mono[i] or mono[j]:
                    failures.append(
                        ("INCONSISTENT_RULES", "elimination tail mentions an eliminated generator")
                    )
                if mono_degree(mono) > 2:
                    failures.append(("INCONSISTENT_RULES", "elimination tail degree > 2"))
        if failures:
            self._report = ValidationReport(False, failures)
            return self._report
        # (b) overlap ambiguities a*b*c, where a*b and b*c are both left
        # sides: swaps, inverse cancellations or elimination pairs
        if self._rewriting is None:
            self._rewriting = self._build_rewriting()
        letters, code, _, table, elim = self._rewriting
        reductions = {
            (a, b): succ
            for a, row in enumerate(table)
            for b, succ in enumerate(row)
            if succ is not None
        }
        for (i, j), succ in elim.items():
            reductions[(code[(i, 1)], code[(j, 1)])] = succ

        def resolve(succ, head, tail):
            # normal form of head*succ*tail, with succ as in the pair table
            out = self.zero()
            for f, rep in succ:
                word = [letters[x] for x in (*head, *rep, *tail)]
                nf = Element(self, self.word_normal_form(word))
                out = out + (nf if f is None else nf.scale(f))
            return out

        for (a, b), first in reductions.items():
            for c in range(len(letters)):
                if (b, c) not in reductions:
                    continue
                n1 = resolve(first, (), (c,))
                n2 = resolve(reductions[(b, c)], (a,), ())
                if n1 != n2:
                    names = "*".join(
                        self.gens[g].name + ("" if s == 1 else "^-1")
                        for g, s in (letters[a], letters[b], letters[c])
                    )
                    failures.append(
                        ("INCONSISTENT_RULES",
                         f"word {names} normalizes to different results: "
                         f"{n1} vs {n2}")
                    )
        sigma_status = "BOUNDED_CERTIFIED" if self.tower and not failures else None
        self._report = ValidationReport(not failures, failures, sigma_status)
        return self._report

    # -- bases ---------------------------------------------------------------

    def filtration_basis(self, d: int) -> tuple:
        """All standard monomials of degree <= d, graded-lex ascending.

        The presentation is immutable, so each degree's basis is computed
        once and kept on the instance."""
        hit = self._basis_cache.get(d)
        if hit is not None:
            return hit
        out = []

        def rec(pos, remaining, prefix):
            if pos == len(self.gens):
                e = tuple(prefix)
                if self._elim_pair(e) is None:
                    out.append(e)
                return
            g = self.gens[pos]
            lo = -remaining if g.invertible else 0
            for e in range(lo, remaining + 1):
                rec(pos + 1, remaining - abs(e), prefix + [e])

        rec(0, d, [])
        out.sort(key=grlex_key)
        self._basis_cache[d] = hit = tuple(out)
        return hit

    def filtration_size(self, d: int) -> int:
        """len(filtration_basis(d)), counted without building the basis.

        A standard monomial of degree <= d is a support S that holds no
        elimination pair, a sign on each invertible generator in S, and
        positive exponents on S summing to at most d, of which there are
        C(d, |S|). So the count is sum c[s] * C(d, s), where c[s] is the
        number of signed supports of size s: the coefficient of t^s in the
        product, over the components of the elimination-pair graph, of
        their generating polynomials. A generator in no pair gives 1 + t,
        or 1 + 2t if it is invertible. `validate` admits only pairs of
        consecutive non-invertible generators, so each component is a run
        of consecutive generators, and the loop builds the product one
        generator at a time."""
        if d < 0:
            return 0
        m = len(self.gens)
        # free[s] / held[s]: signed supports of size s among the generators
        # seen so far, without / with the latest one
        free, held = [1] + [0] * m, [0] * (m + 1)
        for k, g in enumerate(self.gens):
            either = [a + b for a, b in zip(free, held)]
            allowed = free if (k - 1, k) in self.elim else either
            w = 2 if g.invertible else 1
            free, held = either, [0] + [w * c for c in allowed[:-1]]
        return sum((a + b) * math.comb(d, s)
                   for s, (a, b) in enumerate(zip(free, held)))

    # -- rendering -----------------------------------------------------------

    def describe(self):
        return {
            "field": str(self.field),
            "gens": [
                {"name": g.name, "invertible": g.invertible} for g in self.gens
            ],
            "family": self.family,
            "flags": sorted(
                f"{k}({v})" if v is not True else k for k, v in self.flags.items()
            ),
        }

    def __repr__(self):
        gens = ", ".join(g.name + ("^+-1" if g.invertible else "") for g in self.gens)
        return f"<Presentation [{gens}] over {self.field}>"


# ---------------------------------------------------------------------------
# generator maps


class Morphism:
    """An algebra map given on generators; verification lives in `cancel`."""

    def __init__(self, source: Presentation, target: Presentation, images: dict):
        self.source = source
        self.target = target
        self.images = images  # source generator name -> Element of target

    def image_of_letter(self, pos: int, sign: int) -> Element:
        img = self.images[self.source.gens[pos].name]
        return img if sign == 1 else _invert_monomial_element(img)

    def apply(self, x: Element) -> Element:
        if x.algebra is not self.source:
            raise AlgebraMismatchError("element not in the morphism source")
        out = self.target.zero()
        for m, c in x.terms.items():
            img = self.target.one()
            for pos, e in enumerate(m):
                if e == 0:
                    continue
                letter = self.image_of_letter(pos, 1 if e > 0 else -1)
                for _ in range(abs(e)):
                    img = img * letter
            out = out + img.scale(c)
        return out


def broken_relations(m: Morphism):
    """Yield a witness for each defining relation of the source that the
    images break: g*g^-1 = g^-1*g = 1 for each invertible generator g,
    then every swap rule and every elimination pair. A map that breaks
    none is an algebra homomorphism. The image of an invertible g must be
    a scalar times a monomial in invertible generators, whose exact
    two-sided inverse `_invert_monomial_element` gives; a unit of any
    other shape is not recognised and counts as broken."""
    src = m.source
    names = [g.name for g in src.gens]
    non_units = [
        g.name for g in src.gens
        if g.invertible and not _is_unit_monomial(m.images[g.name])
    ]
    for name in non_units:
        yield (f"{name}*{name}^-1 = 1: the image {m.images[name]} is not a "
               "scalar times a monomial in invertible generators")
    if non_units:
        return  # the other relations may need the missing inverses
    for (j, i), rule in src.rules.items():
        gj, gi = m.images[names[j]], m.images[names[i]]
        residue = gj * gi - (gi * gj).scale(rule.leading) - m.apply(
            src.from_terms(rule.tail_dict()))
        if not residue.is_zero():
            yield f"the ({names[j]},{names[i]}) relation maps to {residue}"
    for (i, j), tail in src.elim.items():
        residue = m.images[names[i]] * m.images[names[j]] - m.apply(
            src.from_terms(dict(tail)))
        if not residue.is_zero():
            yield f"the elimination relation ({names[i]},{names[j]}) maps to {residue}"


def _is_unit_monomial(x: Element) -> bool:
    return len(x.terms) == 1 and all(
        g.invertible for e, g in zip(next(iter(x.terms)), x.algebra.gens) if e
    )


def _invert_monomial_element(x: Element) -> Element:
    """Invert c*m, a nonzero scalar times a monomial, as c^-1 times the
    normal form of m's letters reversed, each with its sign flipped.
    (Negating m's exponents is the inverse only when the letters
    commute.) An error if x is not of that shape or m has a letter
    that is not invertible."""
    if len(x.terms) != 1:
        raise ValidationError(
            "cannot invert: image is not a scalar multiple of a monomial",
            code="BAD_INVERSE",
        )
    (m, c), = x.terms.items()
    p = x.algebra
    p._check_monomial(tuple(-e for e in m))
    word = [(pos, -sign) for pos, sign in reversed(p._letters(m))]
    return Element(p, p.word_normal_form(word)).scale(c.inv())


def _invert_scalar_element(x: Element) -> Element:
    """Invert a scalar multiple of 1 (for `/` in element expressions)."""
    if len(x.terms) != 1 or any(e for m in x.terms for e in m):
        raise ValidationError("can only divide by a nonzero scalar")
    return _invert_monomial_element(x)


def identity_morphism(p: Presentation) -> Morphism:
    return Morphism(p, p, {g.name: p.generator(g.name) for g in p.gens})


# ---------------------------------------------------------------------------
# Ore extension and tensor constructors


def _lift_monomial(m: Monomial, extra: int = 1) -> Monomial:
    return m + (0,) * extra


def _delta_of(base: Presentation, delta: dict, x: Element) -> Element:
    """Extend the derivation delta by the Leibniz rule d(uv) = d(u)v + u d(v)."""
    out = base.zero()
    for m, c in x.terms.items():
        letters = base._letters(m)
        for k, (pos, sign) in enumerate(letters):
            name = base.gens[pos].name
            dg = delta[name]
            if sign == -1:
                # d(g^-1) = -g^-1 d(g) g^-1
                ginv = base.gen_inverse(name)
                dg = -(ginv * dg * ginv)
            if dg.is_zero():
                continue
            prefix = Element(base, base.word_normal_form(letters[:k]))
            suffix = Element(base, base.word_normal_form(letters[k + 1:]))
            out = out + (prefix * dg * suffix).scale(c)
    return out


def ore_extend(
    p: Presentation,
    name: str,
    sigma_images: dict | None = None,
    delta_images: dict | None = None,
    invertible: bool = False,
    family: str | None = None,
) -> Presentation:
    """Adjoin a new top generator t with t*g = sigma(g)*t + delta(g).

    sigma must respect the relations of `p` (BAD_SIGMA); the overlap check
    of the result then proves delta a sigma-derivation (INCONSISTENT_RULES).
    Last, every generator of `p` must have a preimage under sigma among
    the standard monomials of degree <= SIGMA_PREIMAGE_DEGREE (BAD_SIGMA).
    Only this step is checked: `p`'s own steps were checked when `p` was
    built."""
    p.require_validated()
    m = len(p.gens)
    sigma = Morphism(
        p, p,
        {g.name: (sigma_images or {}).get(g.name, p.generator(g.name)) for g in p.gens},
    )
    delta = {
        g.name: (delta_images or {}).get(g.name, p.zero()) for g in p.gens
    }
    witness = next(broken_relations(sigma), None)
    if witness is not None:
        raise ValidationError(f"sigma: {witness}", code="BAD_SIGMA")

    new_gens = list(p.gens) + [GeneratorInfo(name, m + 1, invertible)]
    rules = []
    for (j, i), rule in p.rules.items():
        rules.append(
            RewriteRule(
                j, i, rule.leading,
                tuple((_lift_monomial(mo), c) for mo, c in rule.tail),
            )
        )
    for i, g in enumerate(p.gens):
        img = sigma.images[g.name]
        c = img.coefficient(tuple(1 if k == i else 0 for k in range(m)))
        if c.is_zero():
            raise ValidationError(
                f"sigma({g.name}) has no {g.name} component; not filtration-compatible",
                code="TAIL_DEGREE",
            )
        rest = img - p.generator(g.name).scale(c)
        tail = {}
        for mo, cm in rest.terms.items():
            if mono_degree(mo) > 1:
                raise ValidationError(
                    f"sigma({g.name}) tail breaks the degree-2 filtration bound",
                    code="TAIL_DEGREE",
                )
            tail[mo + (1,)] = cm
        for mo, cm in delta[g.name].terms.items():
            if mono_degree(mo) > 2:
                raise ValidationError(
                    f"delta({g.name}) has degree > 2", code="TAIL_DEGREE"
                )
            tail[_lift_monomial(mo)] = cm  # t-degree 0: no sigma term shares it
        if invertible and tail:
            raise ValidationError(
                f"invertible extension requires sigma({g.name}) scalar*generator and delta = 0",
                code="BAD_INVERSE",
            )
        rules.append(
            RewriteRule(m, i, c, tuple(sorted(tail.items(), key=lambda t: grlex_key(t[0]))))
        )
    elim = {
        (i, j): {_lift_monomial(mo): c for mo, c in tail}
        for (i, j), tail in p.elim.items()
    }
    step = OreStep(
        p, name,
        tuple(sigma.images[g.name] for g in p.gens),
        tuple(delta[g.name] for g in p.gens),
    )
    out = Presentation(
        p.field, new_gens, rules=rules, elim=elim,
        flags=dict(p.flags), flag_provenance=dict(p.flag_provenance),
        family=family, notes=p.notes,
    )
    out.tower = p.tower + (step,)
    out.require_validated()
    basis = p.filtration_basis(SIGMA_PREIMAGE_DEGREE)
    images = [sigma.apply(Element(p, {mo: p.field.one()})).terms for mo in basis]
    for g in p.gens:
        if solve(images, p.generator(g.name).terms, p.field) is None:
            raise ValidationError(f"no bounded preimage for {g.name}", code="BAD_SIGMA")
    return out


def tensor_product(
    a: Presentation, b: Presentation, assume_domain: bool = False,
    family: str | None = None,
) -> Presentation:
    """Tensor product over the base field; cross relations commute."""
    if a.field != b.field:
        raise FieldMismatchError("tensor factors must share the coefficient field")
    a.require_validated()
    b.require_validated()
    na = len(a.gens)
    gens = [GeneratorInfo(g.name, g.index, g.invertible) for g in a.gens]
    for g in b.gens:
        gens.append(GeneratorInfo(g.name, na + g.index, g.invertible))
    rules = []
    for (j, i), rule in a.rules.items():
        rules.append(
            RewriteRule(j, i, rule.leading,
                        tuple((mo + (0,) * len(b.gens), c) for mo, c in rule.tail))
        )
    for (j, i), rule in b.rules.items():
        rules.append(
            RewriteRule(na + j, na + i, rule.leading,
                        tuple(((0,) * na + mo, c) for mo, c in rule.tail))
        )
    elim = {}
    for (i, j), tail in a.elim.items():
        elim[(i, j)] = {mo + (0,) * len(b.gens): c for mo, c in tail}
    for (i, j), tail in b.elim.items():
        elim[(na + i, na + j)] = {(0,) * na + mo: c for mo, c in tail}
    flags = {}
    prov = {}
    for name in ("AFFINE", "NOETHERIAN"):
        if a.has_flag(name) and b.has_flag(name):
            flags[name] = True
            prov[name] = "derived(tensor)"
    if assume_domain and a.has_flag("DOMAIN") and b.has_flag("DOMAIN"):
        flags["DOMAIN"] = True
        prov["DOMAIN"] = "asserted(tensor-of-domains)"
    out = Presentation(a.field, gens, rules=rules, elim=elim, flags=flags,
                       flag_provenance=prov, family=family)
    out.require_validated()
    return out


# ---------------------------------------------------------------------------
# commutators and element parsing


def commutator(a: Element, b: Element) -> Element:
    return a * b - b * a


class _ElementParser(_ScalarParser):
    """Element expressions: the coefficient grammar, whose atoms may also
    be generators of the presentation."""

    def __init__(self, pres: Presentation, text: str):
        super().__init__(pres.field, text)
        self.pres = pres

    def atom(self) -> Element:
        c = self.peek()
        if c.isdigit():
            return self.pres.one().scale(super().atom())
        if c.isalpha():
            start = self.pos
            name = self.name()
            try:
                return self.pres.generator(name)
            except KeyError:
                if name == "q":
                    return self.pres.one().scale(self.field.q())
                self.pos = start
                self.fail(f"unknown generator {name!r}")
        return super().atom()  # '(' expr ')', or the failure


def parse_element(pres: Presentation, text: str) -> Element:
    pres.require_validated()
    return _ElementParser(pres, text).parse()
