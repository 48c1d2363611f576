"""Replayable certificates.

A certificate is a finite list of steps; each step replaces the current
vector v by an exact rational combination sum_j c_j * (w_j . v), where
w_j is a word in the algebra generators (the empty word is the identity,
so pure rescaling is a one-term step).  Replaying a certificate from its
start vector must reproduce the claimed result exactly; nothing about a
certificate is trusted until it has been replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exceptions import CertificateError
from .lie import Generator, gen
from .poly import SparsePoly
from .scalars import scalar

Word = tuple[Generator, ...]


def require(ok: bool, what: str) -> None:
    """Raise CertificateError unless a step or replay check holds.

    Unlike ``assert``, the check stays in place under ``python -O``.
    """
    if not ok:
        raise CertificateError(what)


@dataclass(frozen=True)
class CertStep:
    combo: tuple[tuple[Fraction, Word], ...]

    def apply(self, module, v: SparsePoly) -> SparsePoly:
        out = module.ring.zero()
        for coef, word in self.combo:
            w = v
            for g in reversed(word):
                w = module.act(g, w)
            out = out + w * coef
        return out

    def to_jsonable(self):
        return [
            [str(coef), [[g.family, g.index] for g in word]]
            for coef, word in self.combo
        ]

    @classmethod
    def from_jsonable(cls, data) -> "CertStep":
        combo = tuple(
            (scalar(coef), tuple(gen(f, i) for f, i in word)) for coef, word in data
        )
        return cls(combo)


def step(*terms: tuple[Fraction | int | str, Sequence[Generator]]) -> CertStep:
    return CertStep(tuple((scalar(c), tuple(w)) for c, w in terms))


@dataclass
class Certificate:
    steps: list[CertStep]

    def replay(self, module, start: SparsePoly) -> SparsePoly:
        v = start
        for s in self.steps:
            v = s.apply(module, v)
        return v

    def __len__(self) -> int:
        return len(self.steps)

    def to_jsonable(self):
        return [s.to_jsonable() for s in self.steps]

    @classmethod
    def from_jsonable(cls, data) -> "Certificate":
        return cls([CertStep.from_jsonable(s) for s in data])
