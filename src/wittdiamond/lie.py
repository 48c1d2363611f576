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
from .scalars import ONE, ZERO, scalar

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


class LElement:
    """Finite rational linear combination of generators."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Generator, Fraction] | None = None):
        self.terms = {g: c for g, c in (terms or {}).items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LElement") -> "LElement":
        out = dict(self.terms)
        for g, c in other.terms.items():
            nv = out.get(g, ZERO) + c
            if nv:
                out[g] = nv
            else:
                out.pop(g, None)
        return LElement(out)

    def __neg__(self):
        return LElement({g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "LElement":
        c = scalar(c)
        return LElement({g: cv * c for g, cv in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, LElement) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for g in sorted(self.terms, key=Generator.sort_key):
            c = self.terms[g]
            bits.append(f"{'-' if c < 0 else '+'} {'' if abs(c) == 1 else str(abs(c)) + ' '}{g}")
        first = bits[0]
        out = ("-" if first[0] == "-" else "") + first[2:]
        return out + (" " + " ".join(bits[1:]) if len(bits) > 1 else "")

    __repr__ = __str__


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
    out = LElement()
    for g, c in e.terms.items():
        out = out + bracket(x, g).scaled(c)
    return out


def jacobi_residual(x: Generator, y: Generator, z: Generator) -> LElement:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero when the table is consistent."""
    return (
        bracket_gen_elem(x, bracket(y, z))
        + bracket_gen_elem(y, bracket(z, x))
        + bracket_gen_elem(z, bracket(x, y))
    )


Word = tuple[Generator, ...]


class UEnvElement:
    """Element of the enveloping algebra in PBW-normal coordinates.

    Keys are words (tuples of generators) that are non-decreasing under
    the fixed total order; the empty word is the unit.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def one(cls) -> "UEnvElement":
        return cls({(): ONE})

    @classmethod
    def from_word(cls, word: Sequence[Generator], coef=ONE) -> "UEnvElement":
        return pbw_normalize(word).scaled(coef)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            nv = out.get(w, ZERO) + c
            if nv:
                out[w] = nv
            else:
                out.pop(w, None)
        return UEnvElement(out)

    def __neg__(self):
        return UEnvElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "UEnvElement":
        c = scalar(c)
        return UEnvElement({w: cv * c for w, cv in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return uenv_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, UEnvElement) and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), [g.sort_key() for g in w])):
            c = self.terms[w]
            body = " ".join(str(g) for g in w) if w else "1"
            coefstr = "" if abs(c) == 1 and w else f"{abs(c)} "
            bits.append(("-" if c < 0 else "+", f"{coefstr}{body}"))
        sign0, body0 = bits[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in bits[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


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
            nv = acc.get(w, ZERO) + c
            if nv:
                acc[w] = nv
            else:
                acc.pop(w, None)
            continue
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
        stack.append((swapped, c))
        for g2, bc in bracket(w[i], w[i + 1]).terms.items():
            stack.append((w[:i] + (g2,) + w[i + 2 :], c * bc))
    return UEnvElement(acc)


def uenv_mul(u: UEnvElement, v: UEnvElement) -> UEnvElement:
    out = UEnvElement()
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            out = out + pbw_normalize(w1 + w2).scaled(c1 * c2)
    return out


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
