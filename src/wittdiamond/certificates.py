"""Replayable certificates.

A certificate is a finite list of steps; each step replaces the current
vector v by an exact rational combination sum_j c_j * (w_j . v), where
w_j is a word in the algebra generators (the empty word is the identity,
so pure rescaling is a one-term step).  Replaying a certificate from its
start vector must reproduce the claimed result exactly; nothing about a
certificate is trusted until it has been replayed.

A step is applied in Python ints, on the compiled rules that every module
kind hands out as ``module.rules(g)``: v is cleared to integer numerators
over one denominator once, the image of each distinct word suffix is made
once from the one before it by ``poly.act_numerators`` (so words that share
a suffix, as the a-power words of ``omega.dt_step`` do, share its images),
and the words are summed by ``scalars.integer_combination``, with integer
scales over the lcm of their denominators and one Fraction per output key.

A builder records, with each step, the target that step must reach and the
message of its check, without applying the step; one ``replay`` with those
checks then applies every step exactly once and checks each image as it is
made.  A wrong step fails at its own check, even when a later step would
erase its error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exceptions import CertificateError
from .lie import Generator, gen
from .poly import SparsePoly, act_numerators
from .scalars import Frozen, Record, clear_denominators, integer_combination, scalar

Word = tuple[Generator, ...]


def require(ok: bool, what: str) -> None:
    """Raise CertificateError unless a step or replay check holds.

    Unlike ``assert``, the check stays in place under ``python -O``.
    """
    if not ok:
        raise CertificateError(what)


class CertStep(Frozen):
    _fields = ("combo",)

    def __init__(self, combo: tuple[tuple[Fraction, Word], ...]):
        self._set(combo=combo)

    def apply(self, module, v: SparsePoly) -> SparsePoly:
        """sum_j c_j (w_j . v), in ints over one denominator (module docstring)."""
        images = {(): clear_denominators(v.terms)}  # word suffix -> (numerators, den)
        for _, word in self.combo:
            for i in range(len(word) - 1, -1, -1):
                suffix = word[i:]
                if suffix not in images:
                    nums, den = images[suffix[1:]]
                    rules, rules_den = module.rules(suffix[0])
                    images[suffix] = (act_numerators(nums, rules), den * rules_den)
        sums, common = integer_combination([(coef.numerator, coef.denominator * images[word][1],
                                             images[word][0]) for coef, word in self.combo])
        return v._like({y: Fraction(a, common) for y, a in sums.items()})

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


class Certificate(Record):
    _fields = ("steps",)

    def __init__(self, steps: list[CertStep]):
        self.steps = steps

    def replay(self, module, start: SparsePoly,
               checks: Sequence[tuple[SparsePoly, str]] = ()) -> SparsePoly:
        """The end vector, after applying each step once, in order, from start.

        ``checks`` is empty or holds one (target, message) pair per step: the
        image after step i must equal its target, or CertificateError(message)
        is raised at step i.
        """
        require(not checks or len(checks) == len(self.steps), "one check per step")
        v = start
        for i, step in enumerate(self.steps):
            v = step.apply(module, v)
            if checks:
                require(v == checks[i][0], checks[i][1])
        return v

    def to_jsonable(self):
        return [s.to_jsonable() for s in self.steps]

    @classmethod
    def from_jsonable(cls, data) -> "Certificate":
        return cls([CertStep.from_jsonable(s) for s in data])
