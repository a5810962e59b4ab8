"""Oracle tests for the merged rewriting agenda of `word_normal_form`.

The LIFO agenda it replaced is kept below as `reference_word_normal_form`:
it never merges equal words, so its cost is exponential in degree, but it
is a straightforward reading of the rewriting rules. Closed forms cover
degrees the reference cannot reach.
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
from skewcalc.presentation import ore_extend
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

    assert p.word_normal_form(word, pick=pick) == p.word_normal_form(word)
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
