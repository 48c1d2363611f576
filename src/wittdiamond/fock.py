"""Modules built from a rank-two Weyl-type module tensored with a U(b)-module.

The Weyl-type factor for each coordinate x_i is one of:

* ``MFactor(w)``: Laurent monomials in x_i, with the Euler operator
  x_i d/dx_i acting diagonally with eigenvalue w + exponent;
* ``OmegaFactor(l)``: polynomials in the Euler-operator image (variable
  named d_i), where x_i^n scales by l^n and shifts the variable by -n.

The U(b)-factor V is either the one-dimensional module C_eps (e acts as
zero, h as the scalar eps) or the Whittaker-type module C[h] (h acts by
multiplication, e by the unit shift f(h) -> f(h-1); e is injective).

The two V-kinds carry the two compatible twists of the action:

* For C_eps the classical index-linear table is used,

      L[n] p = x0^n (d0 + n alpha) p          a[n] p = beta x0^n x1 d1 p
      d[n] p = x0^n d1 p                               + eps x0^n x1 p
      b[n] p = x0^n x1^-1 p                   c[n] p = -beta x0^n p

  which is a genuine representation because every index-linear defect is
  a multiple of e v = 0.

* For the Whittaker kind the actions are pulled back through the
  corrected operator homomorphism (see homomorphisms.PhiAB):

      L[n](p (x) v) = x0^n (d0 + n alpha) p (x) v + n x0^n p (x) h v
      d[n](p (x) v) = x0^n d1 p (x) v + n x0^n p (x) e v
      a[n](p (x) v) = beta x0^n x1 d1 p (x) v - beta x0^n x1 p (x) (h - n e) v
      b[n](p (x) v) = x0^n x1^-1 p (x) v
      c[n](p (x) v) = -beta x0^n p (x) v

Over C_eps the two families coincide after reparametrizing (alpha, eps),
so the split loses no generality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exceptions import InvalidGenerator, InvalidSpec, NotWeight, UnsupportedOperation
from .lie import Generator, gen
from .poly import PolyRing, SparsePoly, monomials_within
from .scalars import ZERO, scalar


@dataclass(frozen=True)
class MFactor:
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", scalar(self.weight))


@dataclass(frozen=True)
class OmegaFactor:
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", scalar(self.lam))
        if self.lam == 0:
            raise InvalidSpec("shift-module parameter must be nonzero")


@dataclass(frozen=True)
class OneDim:
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", scalar(self.eps))


@dataclass(frozen=True)
class Whittaker:
    pass


class FModule:
    """P (x) V for P a product of two rank-one factors, V a U(b)-module."""

    def __init__(self, alpha, beta, factor0, factor1, v_space):
        self.alpha = scalar(alpha)
        self.beta = scalar(beta)
        if self.beta == 0:
            raise InvalidSpec("beta must be nonzero")
        self.factors = (factor0, factor1)
        self.v_space = v_space
        names = []
        flags = []
        for i, f in enumerate(self.factors):
            if isinstance(f, MFactor):
                names.append(f"x{i}")
                flags.append(True)
            elif isinstance(f, OmegaFactor):
                names.append(f"d{i}")
                flags.append(False)
            else:
                raise InvalidSpec(f"unknown factor kind {type(f).__name__}")
        if isinstance(v_space, Whittaker):
            names.append("h")
            flags.append(False)
        elif not isinstance(v_space, OneDim):
            raise InvalidSpec(f"unknown V kind {type(v_space).__name__}")
        self.ring = PolyRing(tuple(names), tuple(flags))

    def one(self) -> SparsePoly:
        return self.ring.one()

    # -- coordinate-factor primitives ------------------------------------

    def _xpow(self, i: int, n: int, p: SparsePoly) -> SparsePoly:
        if n == 0 or p.is_zero:
            return p
        f = self.factors[i]
        if isinstance(f, MFactor):
            return p.mul_var(f"x{i}", n)
        return p.shift(f"d{i}", n) * f.lam**n

    def _euler(self, i: int, p: SparsePoly) -> SparsePoly:
        """The operator x_i d/dx_i on the i-th factor."""
        f = self.factors[i]
        if isinstance(f, OmegaFactor):
            return p.mul_var(f"d{i}")
        idx = self.ring.index(f"x{i}")
        out = {}
        for exps, c in p.terms.items():
            nv = c * (f.weight + exps[idx])
            if nv:
                out[exps] = nv
        return SparsePoly(self.ring, out)

    # -- U(b)-factor primitives -------------------------------------------

    def _h(self, p: SparsePoly) -> SparsePoly:
        if isinstance(self.v_space, OneDim):
            return p * self.v_space.eps
        return p.mul_var("h")

    def _e(self, p: SparsePoly) -> SparsePoly:
        if isinstance(self.v_space, OneDim):
            return self.ring.zero()
        return p.shift("h", 1)

    # -- the action --------------------------------------------------------

    def act(self, g: Generator, v: SparsePoly) -> SparsePoly:
        n = g.index
        whittaker = isinstance(self.v_space, Whittaker)
        if g.family == "L":
            out = self._xpow(0, n, self._euler(0, v) + v * (n * self.alpha))
            if whittaker and n:
                out = out + self._xpow(0, n, self._h(v)) * n
            return out
        if g.family == "d":
            out = self._xpow(0, n, self._euler(1, v))
            if n:
                out = out + self._xpow(0, n, self._e(v)) * n
            return out
        if g.family == "a":
            weyl = self._xpow(0, n, self._xpow(1, 1, self._euler(1, v))) * self.beta
            ub = self._h(v)
            if n:
                ub = ub - self._e(v) * n
            ub = self._xpow(0, n, self._xpow(1, 1, ub))
            if whittaker:
                return weyl - ub * self.beta
            return weyl + ub
        if g.family == "b":
            return self._xpow(0, n, self._xpow(1, -1, v))
        if g.family == "c":
            return self._xpow(0, n, v) * (-self.beta)
        raise InvalidGenerator(f"unknown generator family {g.family!r}")


def q_action(module: FModule, v: SparsePoly) -> SparsePoly:
    """Apply b[0] a[0] + c[0] d[0]."""
    return module.act(gen("b", 0), module.act(gen("a", 0), v)) + module.act(
        gen("c", 0), module.act(gen("d", 0), v)
    )


@dataclass
class EpsilonSimplicity:
    simple: bool
    witness: int | None = None

    @property
    def barrier(self) -> str | None:
        if self.simple:
            return None
        return f"span{{ x1-degree <= {self.witness} }}"


def epsilon_simplicity(module: FModule) -> EpsilonSimplicity:
    """Decide simplicity of P0 (x) M_w (x) C_eps from the weight arithmetic.

    The module is simple iff beta*w + beta*n + eps is nonzero for every
    integer n; otherwise the level where the a-action dies is returned.
    a[m] kills x1-level n upward while b[m] always descends, so the proper
    submodule is spanned by the x1-degrees <= n.
    """
    if not isinstance(module.v_space, OneDim):
        raise UnsupportedOperation("criterion applies to the one-dimensional V only")
    f1 = module.factors[1]
    if not isinstance(f1, MFactor):
        raise UnsupportedOperation("criterion needs an M-type factor on x1")
    crossing = -module.v_space.eps / module.beta - f1.weight
    if crossing.denominator == 1:
        return EpsilonSimplicity(simple=False, witness=int(crossing))
    return EpsilonSimplicity(simple=True)


def weight_decomposition(
    module: FModule, max_total_degree: int
) -> dict[tuple[Fraction, Fraction], list[tuple[int, ...]]]:
    """Group a truncated monomial basis by joint (L[0], d[0]) eigenvalue."""
    L0, d0 = gen("L", 0), gen("d", 0)
    out: dict[tuple[Fraction, Fraction], list[tuple[int, ...]]] = {}
    for exps in monomials_within(module.ring, max_total_degree):
        mono = SparsePoly(module.ring, {exps: scalar(1)})
        evs = []
        for op in (L0, d0):
            image = module.act(op, mono)
            if image.is_zero:
                evs.append(ZERO)
            elif set(image.terms) == {exps}:
                evs.append(image.terms[exps])
            else:
                raise NotWeight(f"{op} does not act diagonally on {mono}")
        out.setdefault((evs[0], evs[1]), []).append(exps)
    return out
