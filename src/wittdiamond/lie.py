"""The Lie algebra spanned by {L[n], a[n], b[n], c[n], d[n] : n in Z}.

L[n] spans a Witt algebra acting on the loop algebra of the Diamond
algebra (families a, b, c, d).  The nonzero brackets are

    [L[m], L[n]] = (n - m) L[m+n]
    [L[m], x[n]] = n x[m+n]          for x in {a, b, c, d}
    [a[m], b[n]] = c[m+n]
    [d[m], a[n]] = a[m+n]
    [d[m], b[n]] = -b[m+n]

and every pair not obtained from these by antisymmetry vanishes.
``BRACKET_TABLE`` holds these five relations, family by family.
``bracket_terms`` reads the constants of a pair from it once per process,
as an immutable tuple that the checks here and in ``homomorphisms`` and
``omega`` iterate directly; ``bracket`` builds a fresh element from it.
The module also provides PBW-normalized computation in the enveloping
algebra: words are straightened into non-decreasing order under the total
order (family L < a < b < c < d, then index ascending).
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exceptions import InvalidGenerator
from .scalars import ONE, LinComb, add_scaled, signed_terms

FAMILIES = ("L", "a", "b", "c", "d")
_RANK = {f: i for i, f in enumerate(FAMILIES)}


class Generator(NamedTuple):
    family: str
    index: int

    def sort_key(self) -> tuple[int, int]:
        return (_RANK[self.family], self.index)

    def __str__(self):
        return f"{self.family}[{self.index}]"


def gen(family: str, index: int) -> Generator:
    if family not in _RANK:
        raise InvalidGenerator(f"unknown generator family {family!r}")
    return Generator(family, int(index))


# Any letters take an index here, so that an unknown family is refused by name.
_GEN_RE = re.compile(r"^([A-Za-z]+)\[(-?[0-9]+)\]$")


class LElement(LinComb):
    """Finite rational linear combination of generators."""

    __slots__ = ()

    def __init__(self, terms: dict[Generator, Fraction] | None = None):
        self.terms = {g: c for g, c in (terms or {}).items() if c}

    def _sort_key(self, g: Generator):
        return g.sort_key()


# Bound once, as ``bracket`` is called per pair by the checks that build elements.
_new = object.__new__


def bracket(x: Generator, y: Generator) -> LElement:
    """[x, y] as a fresh element, built from the terms of ``bracket_terms``.

    A caller may change what it gets: the element's dict is its own, and
    the cached terms are an immutable tuple, of at most one term.
    """
    new = _new(LElement)
    if terms := bracket_terms(x, y):
        (g, c), = terms
        new.terms = {g: c}
    else:
        new.terms = {}
    return new


# The relations of the module docstring, family by family:
# (x, y) -> (z, (k, k_m, k_n)) means [x_m, y_n] = (k + k_m m + k_n n) z_{m+n}.
BRACKET_TABLE = {
    ("L", "L"): ("L", (0, -1, 1)),
    **{("L", f): (f, (0, 0, 1)) for f in "abcd"},
    ("a", "b"): ("c", (1, 0, 0)),
    ("d", "a"): ("a", (1, 0, 0)),
    ("d", "b"): ("b", (-1, 0, 0)),
}


@functools.cache
def bracket_terms(x: Generator, y: Generator) -> tuple[tuple[Generator, int], ...]:
    """The terms of [x, y] read from ``BRACKET_TABLE``: ``((z, c),)`` with c a
    nonzero int, or ``()`` when the pair commutes.

    A pair given in reverse order is negated, and every pair in neither order
    commutes.  The constants depend on the two generators alone, so each pair
    is worked out once per process, like the product tables of ``operators``;
    the tuple is immutable, so a caller that only iterates the terms reads the
    cache directly.  An unknown family raises ``InvalidGenerator`` on every
    call, as exceptions are not cached.
    """
    fx, m = x.family, x.index
    fy, n = y.family, y.index
    for f in (fx, fy):
        if f not in _RANK:
            raise InvalidGenerator(f"unknown generator family {f!r}")
    if (fx, fy) in BRACKET_TABLE:
        z, (k, k_m, k_n) = BRACKET_TABLE[fx, fy]
        c = k + k_m * m + k_n * n
    elif (fy, fx) in BRACKET_TABLE:
        z, (k, k_m, k_n) = BRACKET_TABLE[fy, fx]
        c = -(k + k_m * n + k_n * m)
    else:
        return ()
    return ((Generator(z, m + n), c),) if c else ()


def jacobi_residual(x: Generator, y: Generator, z: Generator) -> LElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero when the table is consistent.

    The three cyclic terms are summed into one dict in one pass, each
    ``[a, sum_g k_g g]`` as ``sum_g k_g [a, g]``, from the cached terms of
    ``bracket_terms`` with no element built per bracket; under the real table
    every constant is an int, so the sum is integer arithmetic.
    """
    out: dict = {}
    get = out.get
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for g, k in bracket_terms(b, c):
            for h, n in bracket_terms(a, g):
                out[h] = get(h, 0) + k * n
    return LElement(out)


Word = tuple[Generator, ...]


class UEnvElement(LinComb):
    """Element of the enveloping algebra in PBW-normal coordinates.

    Keys are words (tuples of generators) that are non-decreasing under
    the fixed total order; the empty word is the unit.
    """

    __slots__ = ()

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def from_word(cls, word: Sequence[Generator], coef=ONE) -> "UEnvElement":
        return pbw_normalize(word).scaled(coef)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return uenv_mul(self, other)

    def _sort_key(self, w: Word):
        return (len(w), [g.sort_key() for g in w])

    def _format_key(self, w: Word) -> str:
        return " ".join(str(g) for g in w)


def _first_inversion(word: Word) -> int | None:
    for i in range(len(word) - 1):
        if word[i].sort_key() > word[i + 1].sort_key():
            return i
    return None


def pbw_normalize(word: Sequence[Generator]) -> UEnvElement:
    """Straighten a word into the PBW-normal basis.

    Each adjacent inversion x y with x > y is rewritten as y x + [x, y];
    the swap lowers the inversion count and the bracket terms are shorter
    words, so the rewriting terminates.
    """
    acc: dict[Word, Fraction] = {}
    stack: list[tuple[Word, Fraction]] = [(tuple(word), ONE)]
    while stack:
        w, c = stack.pop()
        i = _first_inversion(w)
        if i is None:
            add_scaled(acc, {w: c})
            continue
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
        stack.append((swapped, c))
        for g2, bc in bracket_terms(w[i], w[i + 1]):
            stack.append((w[:i] + (g2,) + w[i + 2 :], c * bc))
    return UEnvElement(acc)


def uenv_mul(u: UEnvElement, v: UEnvElement) -> UEnvElement:
    out: dict[Word, Fraction] = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            add_scaled(out, pbw_normalize(w1 + w2).terms, c1 * c2)
    return u._like(out)


def parse_words(text: str) -> list[tuple[Fraction, Word]]:
    """The terms of "b[0] a[0] - 3/2 c[-1] d[1] + 2" as (coefficient, letters), as written.

    Like every other parse error, a word ``<letters>[<int>]`` whose letters are
    not one of the ``FAMILIES`` is a ValueError, and its message names them.
    """
    return [(coef, tuple(_generator(m) for m in letters))
            for coef, letters in signed_terms(text, _GEN_RE)]


def _generator(m: re.Match) -> Generator:
    if m[1] not in _RANK:
        raise ValueError(f"unknown generator family {m[1]!r} in {m[0]!r}")
    return Generator(m[1], int(m[2]))


def parse_uenv(text: str) -> UEnvElement:
    """The sum of the words of ``parse_words``, straightened into the PBW basis."""
    total = UEnvElement()
    for coef, letters in parse_words(text):
        total = total + UEnvElement.from_word(letters, coef)
    return total


def generators_in_window(window: int) -> list[Generator]:
    return [gen(f, n) for f in FAMILIES for n in range(-window, window + 1)]
