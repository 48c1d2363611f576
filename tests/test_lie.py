"""Structure constants, PBW straightening and the enveloping algebra."""

import itertools
import random
from fractions import Fraction as F

import pytest

from wittdiamond.exceptions import InvalidGenerator
from wittdiamond.lie import (
    LElement,
    UEnvElement,
    bracket,
    gen,
    generators_in_window,
    jacobi_residual,
    parse_generator,
    parse_uenv,
    pbw_normalize,
    uenv_mul,
)
from wittdiamond.oracle import free_word_oracle


def test_bracket_table_examples():
    assert bracket(gen("L", 1), gen("L", 2)) == LElement({gen("L", 3): F(1)})
    assert bracket(gen("d", 2), gen("b", 3)) == LElement({gen("b", 5): F(-1)})
    assert bracket(gen("c", 0), gen("d", 5)).is_zero
    assert bracket(gen("L", 0), gen("L", 0)).is_zero
    assert bracket(gen("a", 1), gen("b", 2)) == LElement({gen("c", 3): F(1)})
    assert bracket(gen("d", 0), gen("a", -2)) == LElement({gen("a", -2): F(1)})
    assert bracket(gen("L", 2), gen("a", 0)).is_zero


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
    one = UEnvElement.one()
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
    assert parse_generator("L[3]") == gen("L", 3)
    assert parse_generator("c[-14]") == gen("c", -14)
    assert str(gen("a", -2)) == "a[-2]"
    with pytest.raises(InvalidGenerator):
        parse_generator("q[0]")
    with pytest.raises(InvalidGenerator):
        gen("x", 0)


def test_uenv_unit_prints_as_its_coefficient():
    assert str(UEnvElement.one()) == "1"
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
