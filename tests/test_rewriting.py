"""Oracle tests for the merged rewriting agenda of `word_normal_form`.

The LIFO agenda it replaced is kept below as `reference_word_normal_form`:
it never merges equal words, so its cost is exponential in degree, but it
is a straightforward reading of the rewriting rules. Closed forms cover
degrees the reference cannot reach. The validation that normalized every
letter triple under two strategies, replaced by the overlap check of
`Presentation.validate`, is kept as `reference_validate`.
"""

import pathlib
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from skewcalc.cli import _as_presentation, parse_algebra_file
from skewcalc.families import (
    build_localized_qweyl,
    finite_rank_quantum_weyl,
    gwa,
    laurent,
    minus_one_plane,
    poly,
    quantum_torus,
    quantum_weyl1,
    skew_poly,
    weyl1,
)
from skewcalc.presentation import (
    Element,
    GeneratorInfo,
    Presentation,
    RewriteRule,
    ValidationReport,
    _check_ore_step,
    mono_degree,
    ore_extend,
)
from skewcalc.scalars import CYCLOTOMIC, PRIME, RATIONAL, FieldDescriptor

Q = FieldDescriptor(RATIONAL)
GF = FieldDescriptor(PRIME, 32003)
C3 = FieldDescriptor(CYCLOTOMIC, 3)
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src/skewcalc/fixtures"

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# reference: the LIFO agenda, one word per agenda entry, nothing merged


def _reducible_positions(w):
    out = []
    for k in range(len(w) - 1):
        (g1, s1), (g2, s2) = w[k], w[k + 1]
        if g1 == g2 and s1 != s2:
            out.append(k)
        elif g1 > g2:
            out.append(k)
    return out


def _letters_single(pos, e):
    if e > 0:
        return [(pos, 1)] * e
    if e < 0:
        return [(pos, -1)] * (-e)
    return []


def reference_word_normal_form(p, word, pick=None) -> dict:
    field = p.field
    result = {}
    agenda = [(field.one(), list(word))]
    while agenda:
        coef, w = agenda.pop()
        if coef.is_zero():
            continue
        red = _reducible_positions(w)
        if red:
            k = red[0] if pick is None else pick(red, w)
            (g1, s1), (g2, s2) = w[k], w[k + 1]
            if g1 == g2 and s1 != s2:
                agenda.append((coef, w[:k] + w[k + 2:]))
                continue
            rule = p.rules[(g1, g2)]
            if s1 == 1 and s2 == 1:
                agenda.append(
                    (coef * rule.leading, w[:k] + [w[k + 1], w[k]] + w[k + 2:])
                )
                for mono_t, ct in rule.tail:
                    agenda.append(
                        (coef * ct, w[:k] + p._letters(mono_t) + w[k + 2:])
                    )
            else:
                factor = rule.leading if s1 == s2 else rule.leading.inv()
                agenda.append(
                    (coef * factor, w[:k] + [w[k + 1], w[k]] + w[k + 2:])
                )
            continue
        # sorted; collapse to an exponent vector
        e = [0] * len(p.gens)
        for g, s in w:
            e[g] += s
        e = tuple(e)
        pair = p._elim_pair(e)
        if pair is not None:
            i, j = pair
            pre, post = [], []
            for pos, ee in enumerate(e):
                letters = _letters_single(pos, ee if pos not in (i, j) else (ee - 1))
                if pos <= i:
                    pre.extend(letters)
                else:
                    post.extend(letters)
            for mono_t, ct in p.elim[(i, j)]:
                agenda.append((coef * ct, pre + p._letters(mono_t) + post))
            continue
        cur = result.get(e)
        result[e] = coef if cur is None else cur + coef
    return {m: c for m, c in result.items() if not c.is_zero()}


def reference_validate(p) -> ValidationReport:
    """The two-strategy validation that overlap checking replaced: every
    letter triple normalized by the engine and by the reference taking the
    last reducible position. Not cached on `p`."""
    failures = []
    # (a) rule shape
    for (j, i), rule in p.rules.items():
        if rule.leading.is_zero():
            failures.append(
                ("INCONSISTENT_RULES", f"rule ({p.gens[j].name},{p.gens[i].name}) has zero leading scalar")
            )
        tail = rule.tail_dict()
        for mono, c in tail.items():
            if mono_degree(mono) > 2:
                failures.append(
                    ("INCONSISTENT_RULES", f"rule ({p.gens[j].name},{p.gens[i].name}) tail degree > 2")
                )
            for e, g in zip(mono, p.gens):
                if e < 0 and not g.invertible:
                    failures.append(("INCONSISTENT_RULES", f"tail uses inverse of {g.name}"))
        if tail and (p.gens[j].invertible or p.gens[i].invertible):
            failures.append(
                ("BAD_INVERSE",
                 f"rule ({p.gens[j].name},{p.gens[i].name}) has a tail but touches an invertible generator")
            )
    for (i, j), tail in p.elim.items():
        if j != i + 1:
            failures.append(("INCONSISTENT_RULES", "elimination pairs must be consecutive"))
        if p.gens[i].invertible or p.gens[j].invertible:
            failures.append(("BAD_INVERSE", "elimination pair generators must not be invertible"))
        for mono, c in tail:
            if mono[i] or mono[j]:
                failures.append(
                    ("INCONSISTENT_RULES", "elimination tail mentions an eliminated generator")
                )
            if mono_degree(mono) > 2:
                failures.append(("INCONSISTENT_RULES", "elimination tail degree > 2"))
    if failures:
        return ValidationReport(False, failures)
    # (b) confluence on all letter triples, two strategies
    alphabet = []
    for pos, g in enumerate(p.gens):
        alphabet.append((pos, 1))
        if g.invertible:
            alphabet.append((pos, -1))
    pick_last = lambda red, w: red[-1]
    for a in alphabet:
        for b in alphabet:
            for c in alphabet:
                w = [a, b, c]
                n1 = p.word_normal_form(w)
                n2 = reference_word_normal_form(p, w, pick=pick_last)
                if n1 != n2:
                    names = "*".join(
                        p.gens[g].name + ("" if s == 1 else "^-1") for g, s in w
                    )
                    failures.append(
                        ("INCONSISTENT_RULES",
                         f"word {names} normalizes to different results: "
                         f"{Element(p, n1)} vs {Element(p, n2)}")
                    )
    sigma_status = None
    if not failures and p.tower:
        sigma_status = "BOUNDED_CERTIFIED"
        for step in p.tower:
            step_failures = _check_ore_step(step)
            failures.extend(step_failures)
    return ValidationReport(not failures, failures, sigma_status)


# ---------------------------------------------------------------------------
# presentations: every family, every shipped fixture


def _mixed_tail_ore():
    # t*x1 = x1*t + x1*x2 over x2*x1 = 2*x1*x2: a degree-2 tail whose
    # letters do not commute
    base = skew_poly(2, {(1, 2): Q.from_int(2)}, Q)
    return ore_extend(
        base, "t", delta_images={"x1": base.generator("x1") * base.generator("x2")}
    )


# x_j x_i = q_ij x_i x_j for i < j
SKEW_Q = {(1, 2): Q.from_int(2), (1, 3): Q.from_int(-1), (2, 3): Q.from_int(3)}
TORUS_Q = {(1, 2): C3.q(), (1, 3): C3.q() ** 2, (2, 3): C3.q()}

FAMILIES = {
    "poly3": lambda: poly(3, Q),
    "laurent2": lambda: laurent(2, Q),
    "skew3": lambda: skew_poly(3, SKEW_Q, Q),
    "torus3": lambda: quantum_torus(3, TORUS_Q, C3),
    "weyl1_q": lambda: weyl1(Q),
    "weyl1_gf": lambda: weyl1(GF),
    "qweyl1": lambda: quantum_weyl1(),
    "minus_one": lambda: minus_one_plane(Q),
    "localized_qweyl": lambda: build_localized_qweyl(C3.q()),
    "gwa": lambda: gwa({0: C3.one(), 1: C3.one()}, C3.q()),
    "rank2_qweyl": lambda: finite_rank_quantum_weyl(2, [C3.q(), C3.q() ** 2]),
    "mixed_tail": _mixed_tail_ore,
}
FAMILIES.update({
    f"fixture:{path.stem}": (
        lambda path=path: _as_presentation(parse_algebra_file(path.read_text()))
    )
    for path in sorted(FIXTURES.glob("*.alg"))
})
_BUILT = {}


def _presentation(name):
    if name not in _BUILT:
        _BUILT[name] = FAMILIES[name]()
    return _BUILT[name]


def _alphabet(p):
    out = []
    for pos, g in enumerate(p.gens):
        out.append((pos, 1))
        if g.invertible:
            out.append((pos, -1))
    return out


def _words(p, max_len=8):
    return st.lists(st.sampled_from(_alphabet(p)), max_size=max_len)


def test_every_fixture_is_covered():
    assert len([n for n in FAMILIES if n.startswith("fixture:")]) == 7
    assert any(_presentation(n).elim for n in FAMILIES)
    assert any(g.invertible for n in FAMILIES for g in _presentation(n).gens)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@SETTINGS
@given(data=st.data())
def test_merged_engine_matches_reference(name, data):
    p = _presentation(name)
    word = data.draw(_words(p))
    assert p.word_normal_form(word) == reference_word_normal_form(p, word)


@pytest.mark.parametrize("name", ["weyl1_q", "qweyl1", "localized_qweyl", "gwa",
                                  "torus3", "mixed_tail"])
@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_random_pick_strategies_agree(name, data, seed):
    p = _presentation(name)
    word = data.draw(_words(p))
    rng = random.Random(seed)
    seen = []

    def pick(red, w):
        seen.append(w)
        return rng.choice(red)

    assert reference_word_normal_form(p, word, pick=pick) == p.word_normal_form(word)
    # the hook sees the word as (generator position, sign) letters
    assert all(letter in _alphabet(p) for w in seen for letter in w)


@pytest.mark.parametrize("field", [Q, GF], ids=str)
def test_weyl_closed_form(field):
    # y*x = x*y - 1, so y^m x^n = sum_k (-1)^k k! C(m,k) C(n,k) x^(n-k) y^(m-k)
    p = weyl1(field)
    for m in range(13):
        for n in range(13):
            expected = {
                (n - k, m - k): field.from_int(
                    (-1) ** k * factorial(k) * comb(m, k) * comb(n, k)
                )
                for k in range(min(m, n) + 1)
            }
            expected = {mono: c for mono, c in expected.items() if not c.is_zero()}
            assert p.word_normal_form([(1, 1)] * m + [(0, 1)] * n) == expected


def _diagonal_oracle(p, q_matrix, a, b):
    # x^a x^b = prod_{i<j} q_ij^(a_j b_i) x^(a+b)
    c = p.field.one()
    for (i, j), q in q_matrix.items():
        c = c * q ** (a[j - 1] * b[i - 1])
    return {tuple(u + v for u, v in zip(a, b)): c}


@SETTINGS
@given(a=st.tuples(*[st.integers(0, 4)] * 3), b=st.tuples(*[st.integers(0, 4)] * 3))
def test_skew_monomial_products(a, b):
    p = _presentation("skew3")
    word = p._letters(a) + p._letters(b)
    assert p.word_normal_form(word) == _diagonal_oracle(p, SKEW_Q, a, b)


@SETTINGS
@given(a=st.tuples(*[st.integers(-4, 4)] * 3), b=st.tuples(*[st.integers(-4, 4)] * 3))
def test_torus_monomial_products(a, b):
    p = _presentation("torus3")
    word = p._letters(a) + p._letters(b)
    assert p.word_normal_form(word) == _diagonal_oracle(p, TORUS_Q, a, b)


# ---------------------------------------------------------------------------
# validation: overlap ambiguities against the two-strategy reference


def test_every_family_and_fixture_validates():
    for name in sorted(FAMILIES):
        p = _presentation(name)
        assert p.validate().ok, name
        assert reference_validate(p).ok, name


_SMALL = [Q.from_int(c) for c in (1, 1, 1, -1, 2, 3)]


@st.composite
def _terminating_presentations(draw, elim):
    """Random presentations over Q whose rewriting terminates.

    A tail uses non-invertible generators below the rule's lower
    generator and, when `elim` is set, invertible generators anywhere
    else. Every rule then lowers the multiset of non-invertible letters,
    or keeps it and shortens the word or removes an inversion. With `elim`
    set, consecutive non-invertible pairs may get elimination rules, and
    half of the draws are generalized Weyl algebras with at most one rule
    redrawn.
    """
    if elim and draw(st.booleans()):
        a = {e: draw(st.sampled_from(_SMALL)) for e in draw(st.sets(st.integers(-2, 2), min_size=1))}
        p = gwa(a, draw(st.sampled_from(_SMALL[3:])))
        rules, pairs = dict(p.rules), dict(p.elim)
        tails = st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(_SMALL)), max_size=2)
        which = draw(st.sampled_from(["none", "swap", "elim", "lead"]))
        if which == "swap":
            rules[(1, 0)] = RewriteRule(1, 0, Q.one(), tuple(
                sorted({(0, 0, e): c for e, c in draw(tails)}.items())))
        elif which == "elim":
            pairs[(0, 1)] = {(0, 0, e): c for e, c in draw(tails)}
        elif which == "lead":
            rules[(2, 1)] = RewriteRule(2, 1, draw(st.sampled_from(_SMALL)), ())
        return Presentation(Q, p.gens, rules=rules.values(), elim=pairs)
    m = draw(st.integers(2 if elim else 3, 3 if elim else 4))
    inv = [draw(st.booleans()) for _ in range(m)]
    gens = [GeneratorInfo(f"x{k + 1}", k + 1, invertible=inv[k]) for k in range(m)]

    def tail(lo, hi):
        letters = [(k, 1) for k in range(lo)]
        if elim:
            letters += [(k, s) for k in range(m) if inv[k] and not lo <= k <= hi
                        for s in (1, -1)]
        out = {}
        for _ in range(draw(st.integers(0, 2))):
            e = [0] * m
            for k, s in draw(st.lists(st.sampled_from(letters), max_size=2)) if letters else ():
                e[k] += s
            out[tuple(e)] = draw(st.sampled_from(_SMALL))
        return tuple(sorted(out.items()))

    rules = [
        RewriteRule(j, i, draw(st.sampled_from(_SMALL)),
                    () if inv[i] or inv[j] else tail(i, i))
        for j in range(m) for i in range(j)
    ]
    pairs = {}
    if elim:
        for i in range(m - 1):
            if not (inv[i] or inv[i + 1]) and draw(st.booleans()):
                pairs[(i, i + 1)] = dict(tail(i, i + 1))
    return Presentation(Q, gens, rules=rules, elim=pairs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(p=_terminating_presentations(elim=False))
def test_overlap_validation_agrees_with_reference_validate(p):
    assert p.validate().ok == reference_validate(p).ok


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(p=_terminating_presentations(elim=True))
def test_validated_presentations_are_associative(p):
    if not p.validate().ok:
        return
    monos = [p.monomial(mono) for mono in p.filtration_basis(2)]
    for a in monos:
        for b in monos:
            ab = a * b
            for c in monos:
                assert ab * c == a * (b * c)
