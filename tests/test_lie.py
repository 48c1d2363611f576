"""Structure constants, PBW straightening and the enveloping algebra."""

import contextlib
import itertools
import random
from fractions import Fraction as F

import pytest
from conftest import FORMER_WORD_SPLIT, former_terms, planted_bracket_terms
from oracles import free_word_oracle

from wittdiamond import lie
from wittdiamond.exceptions import InvalidGenerator
from wittdiamond.lie import (
    Generator,
    LElement,
    UEnvElement,
    bracket,
    bracket_terms,
    family_bracket,
    gen,
    generators_in_window,
    identity_violations,
    jacobi_residual,
    parse_uenv,
    parse_words,
    pbw_normalize,
    uenv_mul,
)
from wittdiamond.scalars import ONE


def test_bracket_table_examples():
    assert bracket(gen("L", 1), gen("L", 2)) == LElement({gen("L", 3): F(1)})
    assert bracket(gen("d", 2), gen("b", 3)) == LElement({gen("b", 5): F(-1)})
    assert bracket(gen("c", 0), gen("d", 5)).is_zero
    assert bracket(gen("L", 0), gen("L", 0)).is_zero
    assert bracket(gen("a", 1), gen("b", 2)) == LElement({gen("c", 3): F(1)})
    assert bracket(gen("d", 0), gen("a", -2)) == LElement({gen("a", -2): F(1)})
    assert bracket(gen("L", 2), gen("a", 0)).is_zero


def test_brackets_do_not_leak_into_the_cache():
    pairs = [(gen("L", 1), gen("L", 2)), (gen("a", -1), gen("L", 2)), (gen("b", 0), gen("d", 3))]
    for x, y in pairs:
        terms = bracket_terms(x, y)
        first = bracket(x, y)
        want = LElement(dict(first.terms))
        assert want and tuple(want.terms.items()) == terms
        # A caller changing the returned element must not reach the cached table.
        first.terms.clear()
        second = bracket(x, y)
        assert second == want and second is not first
        second.terms[gen("c", 9)] = F(5)
        assert bracket(x, y) == want
        assert bracket(y, x) == want.scaled(-1)
        assert bracket_terms(x, y) == terms


def test_unknown_family_raises_on_every_call():
    # Exceptions are not cached: each call checks the families again.
    bad = Generator("z", 0)
    for _ in range(3):
        for x, y in ((bad, gen("L", 1)), (gen("L", 1), bad), (bad, bad)):
            for read in (bracket, bracket_terms):
                with pytest.raises(InvalidGenerator):
                    read(x, y)


def test_antisymmetry_window3():
    gens = generators_in_window(3)
    for x in gens:
        for y in gens:
            assert (bracket(x, y) + bracket(y, x)).is_zero


def test_jacobi_window3_full_sweep():
    gens = generators_in_window(3)
    assert len(gens) == 35
    for x, y, z in itertools.product(gens, repeat=3):
        assert jacobi_residual(x, y, z).is_zero


def _summed_jacobi(x, y, z):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] as LElement sums of ``lie.bracket`` calls."""
    total = LElement()
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for g, k in lie.bracket(b, c).terms.items():
            total = total + lie.bracket(a, g).scaled(k)
    return total


def test_jacobi_residual_is_the_sum_of_the_three_nested_brackets():
    gens = generators_in_window(1)
    for x, y, z in itertools.product(gens, repeat=3):
        assert jacobi_residual(x, y, z) == _summed_jacobi(x, y, z)


def test_jacobi_residual_follows_a_patched_table(monkeypatch):
    # Under the planted table [L_m, z_n] = n (1 + m) z_{m+n} the residual on
    # (L_l, L_m, z_n) is l m n (m - l) z_{l+m+n}; the values must match the sum.
    # ``jacobi_residual`` and ``lie.bracket``, which the sum reads, both read
    # ``lie.bracket_terms``.
    monkeypatch.setattr(lie, "bracket_terms", planted_bracket_terms)
    gens = generators_in_window(1)
    nonzero = 0
    for x, y, z in itertools.product(gens, repeat=3):
        got = jacobi_residual(x, y, z)
        assert got.terms == _summed_jacobi(x, y, z).terms, (x, y, z)
        nonzero += not got.is_zero
    # l = -1, m = 1, n = 1: l m n (m - l) = -2.
    assert jacobi_residual(gen("L", -1), gen("L", 1), gen("a", 1)) == LElement({gen("a", 1): F(-2)})
    assert nonzero


def test_family_bracket_orients_a_pair_against_the_table():
    assert family_bracket("L", "L") == ("L", (0, -1, 1))
    assert family_bracket("L", "b") == ("b", (0, 0, 1))
    # [b_m, L_n] = -[L_n, b_m] = -m b_{m+n}, and [a_m, d_n] = -a_{m+n}.
    assert family_bracket("b", "L") == ("b", (0, -1, 0))
    assert family_bracket("a", "d") == ("a", (-1, 0, 0))
    assert family_bracket("b", "c") is None and family_bracket("c", "c") is None
    for pair in (("z", "L"), ("L", "z")):
        with pytest.raises(InvalidGenerator):
            family_bracket(*pair)


@contextlib.contextmanager
def _table_plant(key, entry):
    """``BRACKET_TABLE[key] = entry`` inside the block, with the per-index cache cleared
    before and after, so neither the plant nor the true table hides the other."""
    original = lie.BRACKET_TABLE[key]
    lie.bracket_terms.cache_clear()
    lie.BRACKET_TABLE[key] = entry
    try:
        yield
    finally:
        lie.BRACKET_TABLE[key] = original
        lie.bracket_terms.cache_clear()


# The per-index residuals of the window sweep that ``identity_violations`` replaced, kept
# as its oracle: identity -> (arity, residual).
_WINDOWED = {"antisymmetry": (2, lambda x, y: bracket(x, y) + bracket(y, x)),
             "jacobi": (3, jacobi_residual)}


def _swept_families(name):
    """The family tuples with a nonzero residual on the window {-1, 0, 1}: ordered pairs,
    and multisets in ``FAMILIES`` order, as ``identity_violations`` names them."""
    arity, residual = _WINDOWED[name]
    bad = {tuple(g.family for g in gs)
           for gs in itertools.product(generators_in_window(1), repeat=arity)
           if not residual(*gs).is_zero}
    return bad if arity == 2 else {tuple(sorted(f, key=lie.FAMILIES.index)) for f in bad}


def _reported(violations):
    return [parse_words(" ".join(names))[0][1] for names in violations]


def test_the_table_is_consistent_as_identities_in_the_indices():
    assert identity_violations() == {"antisymmetry": ("Q[m, n]", 25, []),
                                     "jacobi": ("Q[l, m, n]", 35, [])}


def test_a_table_plant_fails_jacobi_at_a_b_d_where_the_windowed_residual_is_nonzero():
    with _table_plant(("d", "a"), ("a", (2, 0, 0))):
        found = identity_violations()
        (triple,) = _reported(found["jacobi"][2])
        assert jacobi_residual(*triple) == LElement({gen("c", 0): F(-1)})
        assert _swept_families("jacobi") == {("a", "b", "d")}
        assert not _swept_families("antisymmetry")
    assert found["antisymmetry"][2] == []
    assert triple == (gen("a", 0), gen("b", 0), gen("d", 0))


def test_an_unnegated_reversed_pair_fails_where_the_windowed_sweep_does(monkeypatch):
    read = lie.family_bracket

    def unnegated(fx, fy):
        out = read(fx, fy)
        if (fx, fy) not in lie.BRACKET_TABLE and out is not None:
            z, (k, k_m, k_n) = out
            return z, (-k, -k_m, -k_n)
        return out

    try:
        with monkeypatch.context() as patch:
            patch.setattr(lie, "family_bracket", unnegated)
            lie.bracket_terms.cache_clear()
            found = identity_violations()
            for name, (_, residual) in _WINDOWED.items():
                reported = _reported(found[name][2])
                assert {tuple(g.family for g in gs) for gs in reported} == _swept_families(name)
                # Each reported point is one where the per-index reading fails too.
                assert all(not residual(*gs).is_zero for gs in reported), name
    finally:
        lie.bracket_terms.cache_clear()


def _reference_structure_constants(x, y):
    """The structure constants as one branch per ordered pair of families, as the
    table was written before ``lie.BRACKET_TABLE``."""
    fx, m = x.family, x.index
    fy, n = y.family, y.index
    if fx == "L" and fy == "L":
        return LElement({gen("L", m + n): n - m})
    if fx == "L":
        return LElement({gen(fy, m + n): n})
    if fy == "L":
        return -_reference_structure_constants(y, x)
    if fx == "a" and fy == "b":
        return LElement({gen("c", m + n): 1})
    if fx == "b" and fy == "a":
        return LElement({gen("c", m + n): -1})
    if fx == "d" and fy == "a":
        return LElement({gen("a", m + n): 1})
    if fx == "a" and fy == "d":
        return LElement({gen("a", m + n): -1})
    if fx == "d" and fy == "b":
        return LElement({gen("b", m + n): -1})
    if fx == "b" and fy == "d":
        return LElement({gen("b", m + n): 1})
    return LElement()


def test_bracket_table_matches_the_reference_branches_on_every_family_pair():
    gens = generators_in_window(5)
    for x, y in itertools.product(gens, repeat=2):
        want = _reference_structure_constants(x, y)
        assert bracket(x, y).terms == want.terms, (x, y)
        assert bracket_terms(x, y) == tuple(want.terms.items()), (x, y)
    # Each relation is listed once, in one order, and names known families.
    pairs = set(lie.BRACKET_TABLE)
    assert not {(fy, fx) for fx, fy in pairs if fx != fy} & pairs
    assert all({fx, fy, z} <= set(lie.FAMILIES) for (fx, fy), (z, _) in lie.BRACKET_TABLE.items())


def test_structure_constants_are_ints():
    gens = generators_in_window(2)
    constants = [c for x in gens for y in gens for c in bracket(x, y).terms.values()]
    assert constants and all(type(c) is int for c in constants)


def test_pbw_examples():
    b0a0 = pbw_normalize([gen("b", 0), gen("a", 0)])
    expected = UEnvElement(
        {(gen("a", 0), gen("b", 0)): F(1), (gen("c", 0),): F(-1)}
    )
    assert b0a0 == expected
    assert pbw_normalize([gen("a", 0), gen("L", 0)]) == UEnvElement(
        {(gen("L", 0), gen("a", 0)): F(1)}
    )
    L0L0 = pbw_normalize([gen("L", 0), gen("L", 0)])
    assert L0L0 == UEnvElement({(gen("L", 0), gen("L", 0)): F(1)})


def test_uenv_mul_examples():
    a0 = UEnvElement.from_word([gen("a", 0)])
    b0 = UEnvElement.from_word([gen("b", 0)])
    assert a0 * b0 == UEnvElement({(gen("a", 0), gen("b", 0)): F(1)})
    assert b0 * a0 == pbw_normalize([gen("b", 0), gen("a", 0)])
    one = UEnvElement({(): ONE})
    u = parse_uenv("2 L[1] d[0] - 1/2 c[3]")
    assert one * u == u and u * one == u


def test_pbw_idempotent_and_associative_random():
    rng = random.Random(4)
    pool = generators_in_window(2)
    for _ in range(25):
        words = [
            tuple(rng.choice(pool) for _ in range(rng.randint(0, 4))) for _ in range(3)
        ]
        u, v, w = (pbw_normalize(word) for word in words)
        for x in (u, v, w):
            renorm = UEnvElement()
            for word, c in x.terms.items():
                renorm = renorm + pbw_normalize(word).scaled(c)
            assert renorm == x
        assert uenv_mul(uenv_mul(u, v), w) == uenv_mul(u, uenv_mul(v, w))


def test_pbw_matches_free_word_oracle():
    pool = generators_in_window(2)
    rng = random.Random(8)
    words = [tuple(rng.choice(pool) for _ in range(n)) for n in (0, 1, 2, 3) for _ in range(12)]
    words.append((gen("d", 0), gen("a", 0), gen("b", 0)))
    for word in words:
        assert pbw_normalize(word) == free_word_oracle(word)


def test_generator_parsing():
    assert parse_words("L[3] c[-14]") == [(F(1), (gen("L", 3), gen("c", -14)))]
    assert str(gen("a", -2)) == "a[-2]"
    for text, family in (("q[0]", "q"), ("2 L[1] xy[-3]", "xy"), ("Q[2] - a[0]", "Q")):
        with pytest.raises(ValueError, match=f"unknown generator family '{family}'"):
            parse_words(text)
    with pytest.raises(InvalidGenerator):
        gen("x", 0)


def test_uenv_unit_prints_as_its_coefficient():
    assert str(UEnvElement({(): ONE})) == "1"
    assert str(parse_uenv("2 + a[0]")) == "2 + a[0]"
    assert str(parse_uenv("a[0] - 3/2")) == "-3/2 + a[0]"
    assert str(UEnvElement()) == "0"


def test_parse_uenv_q_expression():
    q = parse_uenv("b[0] a[0] + c[0] d[0]")
    manual = uenv_mul(
        UEnvElement.from_word([gen("b", 0)]), UEnvElement.from_word([gen("a", 0)])
    ) + uenv_mul(
        UEnvElement.from_word([gen("c", 0)]), UEnvElement.from_word([gen("d", 0)])
    )
    assert q == manual


def test_parse_uenv_negative_indices_are_not_term_signs():
    d = gen("d", -1)
    assert parse_uenv("d[-1]") == UEnvElement.from_word([d])
    assert parse_uenv("-d[-1]") == UEnvElement.from_word([d], -1)
    assert parse_uenv("L[1] d[-1] - 2 a[-3]") == (
        UEnvElement.from_word([gen("L", 1), d]) - UEnvElement.from_word([gen("a", -3)], 2)
    )
    assert parse_uenv("L[-2]-L[2]+c[-1]") == (
        UEnvElement.from_word([gen("L", -2)])
        - UEnvElement.from_word([gen("L", 2)])
        + UEnvElement.from_word([gen("c", -1)])
    )


def _seeded_word_sum(rng):
    """A sum of words with negative indices and rational coefficients, signs and
    spacing varied, as "1/2 d[-1] L[2] - 3 c[0] + 2".

    Each term has one sign, before its coefficient (the first term may have
    none): a second sign, as in "- -3 c[0]", is refused by ``parse_words``."""
    pieces = []
    for i in range(rng.randint(1, 4)):
        letters = [f"{rng.choice(lie.FAMILIES)}[{rng.randint(-12, 12)}]"
                   for _ in range(rng.randint(0, 3))]
        coef = rng.choice(["", "2", "3", "1/2", "7/3", "0"])
        words = ([coef] if coef else []) + letters
        if not words:
            words = ["1"]
        sign = rng.choice(["+", "-"]) if i else rng.choice(["", "-", "+"])
        pieces.append(sign + rng.choice(["", " "]) + rng.choice([" ", "*"]).join(words))
    return rng.choice([" ", ""]).join(pieces)


def test_parse_words_matches_the_former_splitter_on_seeded_sums():
    rng = random.Random(39)
    for _ in range(300):
        text = _seeded_word_sum(rng)
        want = [(coef, tuple(gen(w[0], int(w[2:-1])) for w in words))
                for coef, words in former_terms(text, FORMER_WORD_SPLIT)]
        assert parse_words(text) == want, text
