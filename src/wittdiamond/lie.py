"""The Lie algebra spanned by {L[n], a[n], b[n], c[n], d[n] : n in Z}.

L[n] spans a Witt algebra acting on the loop algebra of the Diamond
algebra (families a, b, c, d).  The nonzero brackets are

    [L[m], L[n]] = (n - m) L[m+n]
    [L[m], x[n]] = n x[m+n]          for x in {a, b, c, d}
    [a[m], b[n]] = c[m+n]
    [d[m], a[n]] = a[m+n]
    [d[m], b[n]] = -b[m+n]

and every pair not obtained from these by antisymmetry vanishes.  The
module also provides PBW-normalized computation in the enveloping
algebra: words are straightened into non-decreasing order under the
total order (family L < a < b < c < d, then index ascending).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exceptions import InvalidGenerator
from .scalars import ONE, LinComb, add_scaled, scalar

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


_GEN_RE = re.compile(r"^([Labcd])\[(-?\d+)\]$")


def parse_generator(text: str) -> Generator:
    m = _GEN_RE.match(text.strip())
    if not m:
        raise InvalidGenerator(f"cannot parse generator {text!r}")
    return Generator(m.group(1), int(m.group(2)))


class LElement(LinComb):
    """Finite rational linear combination of generators."""

    __slots__ = ()

    def __init__(self, terms: dict[Generator, Fraction] | None = None):
        self.terms = {g: c for g, c in (terms or {}).items() if c}

    def _sort_key(self, g: Generator):
        return g.sort_key()


def bracket(x: Generator, y: Generator) -> LElement:
    """Structure constants of the algebra; see the module docstring."""
    fx, m = x.family, x.index
    fy, n = y.family, y.index
    for f in (fx, fy):
        if f not in _RANK:
            raise InvalidGenerator(f"unknown generator family {f!r}")
    if fx == "L" and fy == "L":
        return LElement({gen("L", m + n): Fraction(n - m)})
    if fx == "L":
        return LElement({gen(fy, m + n): Fraction(n)})
    if fy == "L":
        return bracket(y, x).scaled(-1)
    if fx == "a" and fy == "b":
        return LElement({gen("c", m + n): ONE})
    if fx == "b" and fy == "a":
        return LElement({gen("c", m + n): -ONE})
    if fx == "d" and fy == "a":
        return LElement({gen("a", m + n): ONE})
    if fx == "a" and fy == "d":
        return LElement({gen("a", m + n): -ONE})
    if fx == "d" and fy == "b":
        return LElement({gen("b", m + n): -ONE})
    if fx == "b" and fy == "d":
        return LElement({gen("b", m + n): ONE})
    return LElement()


def bracket_gen_elem(x: Generator, e: LElement) -> LElement:
    out: dict[Generator, Fraction] = {}
    for g, c in e.terms.items():
        add_scaled(out, bracket(x, g).terms, c)
    return e._like(out)


def jacobi_residual(x: Generator, y: Generator, z: Generator) -> LElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero when the table is consistent."""
    return (
        bracket_gen_elem(x, bracket(y, z))
        + bracket_gen_elem(y, bracket(z, x))
        + bracket_gen_elem(z, bracket(x, y))
    )


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
    def one(cls) -> "UEnvElement":
        return cls({(): ONE})

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
        for g2, bc in bracket(w[i], w[i + 1]).terms.items():
            stack.append((w[:i] + (g2,) + w[i + 2 :], c * bc))
    return UEnvElement(acc)


def uenv_mul(u: UEnvElement, v: UEnvElement) -> UEnvElement:
    out: dict[Word, Fraction] = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            add_scaled(out, pbw_normalize(w1 + w2).terms, c1 * c2)
    return u._like(out)


_UENV_TERM_SPLIT = re.compile(r"(?=[+-])")


def parse_uenv(text: str) -> UEnvElement:
    """Parse expressions like "b[0] a[0] - 3/2 c[-1] d[1] + 2"."""
    text = text.strip()
    if not text or text == "0":
        return UEnvElement()
    total = UEnvElement()
    for raw in _UENV_TERM_SPLIT.split(text.replace("*", " ")):
        raw = raw.strip()
        if not raw:
            continue
        sign = ONE
        while raw and raw[0] in "+-":
            if raw[0] == "-":
                sign = -sign
            raw = raw[1:].strip()
        coef = sign
        letters: list[Generator] = []
        for tok in raw.split():
            if _GEN_RE.match(tok):
                letters.append(parse_generator(tok))
            else:
                coef *= scalar(tok)
        total = total + UEnvElement.from_word(letters, coef)
    return total


def generators_in_window(window: int, families: Iterable[str] = FAMILIES) -> list[Generator]:
    return [gen(f, n) for f in families for n in range(-window, window + 1)]
