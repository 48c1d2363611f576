"""Modules built from a rank-two Weyl-type module tensored with a U(b)-module.

The Weyl-type factor for each coordinate x_i is one of:

* ``MFactor(w)``: Laurent monomials in x_i, with the Euler operator
  x_i d/dx_i acting diagonally with eigenvalue w + exponent;
* ``OmegaFactor(l)``: polynomials in the Euler-operator image (variable
  named d_i), where x_i^n scales by l^n and shifts the variable by -n.

The U(b)-factor V is either the one-dimensional module C_eps (e acts as
zero, h as the scalar eps) or the Whittaker-type module C[h] (h acts by
multiplication, e by the unit shift f(h) -> f(h-1); e is injective).

Every action is a pullback of the ab table (``homomorphisms.ab_terms``, the
generator images of ``PhiAB``) to P0 (x) P1 (x) V, each monomial acting
factor by factor: ``FModule`` is a ``homomorphisms.PullbackModule`` with this
one pullback, of P0's scale (l on Omega(l), 1 on M(w)) and, on an
Omega-type P0, index variable d0.  On the Whittaker V the map
is PhiAB(alpha, beta).  On C_eps it is PhiAB(alpha + eps/beta, beta), with h
acting as -eps/beta and e as 0: the classical index-linear table, where a[n]
gains eps x0^n x1 and every index-linear defect is a multiple of e v = 0.
"""

from __future__ import annotations

from fractions import Fraction

from . import homomorphisms
from .exceptions import InvalidSpec, NotApplicable
from .lie import Generator, gen
from .omega import InvarianceReport, invariance_check
from .operators import scalar_factor, shift_factor, weight_factor, whittaker_factor
from .poly import PolyRing, SparsePoly, act_by_rules
from .scalars import ONE, Frozen, Record, scalar


class MFactor(Frozen):
    _fields = ("weight",)

    def __init__(self, weight: Fraction):
        self._set(weight=scalar(weight))


class OmegaFactor(Frozen):
    _fields = ("lam",)

    def __init__(self, lam: Fraction):
        lam = scalar(lam)
        if lam == 0:
            raise InvalidSpec("shift-module parameter must be nonzero")
        self._set(lam=lam)


class OneDim(Frozen):
    _fields = ("eps",)

    def __init__(self, eps: Fraction):
        self._set(eps=scalar(eps))


class Whittaker(Frozen):
    pass


class FModule(homomorphisms.PullbackModule):
    """P (x) V for P a product of two rank-one factors, V a U(b)-module (module docstring)."""

    def __init__(self, alpha, beta, factor0, factor1, v_space):
        self.alpha = scalar(alpha)
        self.beta = scalar(beta)
        if self.beta == 0:
            raise InvalidSpec("beta must be nonzero")
        self.factors = (factor0, factor1)
        self.v_space = v_space
        kinds = []  # (name, Laurent flag, factor action) of each variable
        for i, f in enumerate(self.factors):
            if isinstance(f, MFactor):
                kinds.append((f"x{i}", True, weight_factor(i, f.weight)))
            elif isinstance(f, OmegaFactor):
                kinds.append((f"d{i}", False, shift_factor(i, f.lam)))
            else:
                raise InvalidSpec(f"unknown factor kind {type(f).__name__}")
        if isinstance(v_space, Whittaker):
            kinds.append(("h", False, whittaker_factor(2)))
        elif not isinstance(v_space, OneDim):
            raise InvalidSpec(f"unknown V kind {type(v_space).__name__}")
        names, flags, actions = zip(*kinds)
        # On C_eps the ab table is read at alpha + eps/beta, h acts as -eps/beta, and e acts
        # as 0, so the table leaves out the e terms.
        on_eps = isinstance(v_space, OneDim)
        shift = v_space.eps / self.beta if on_eps else 0
        if on_eps:
            actions += (scalar_factor(-shift),)
        table = homomorphisms.ab_terms(self.alpha + shift, self.beta)
        table = {family: tuple((x, (h, e), c) for x, (h, e), c in terms if not (on_eps and e))
                 for family, terms in table.items()}
        omega_p0 = isinstance(factor0, OmegaFactor)
        super().__init__(PolyRing(names, flags), [
            (table, actions, factor0.lam if omega_p0 else ONE, "d0" if omega_p0 else None)])

    def act(self, g: Generator, v: SparsePoly) -> SparsePoly:
        """g v: one ``poly.act_by_rules`` pass with the rules of ``rules(g)``."""
        return act_by_rules(v, *self.rules(g))


def q_action(module: FModule, v: SparsePoly) -> SparsePoly:
    """Apply b[0] a[0] + c[0] d[0]."""
    return module.act(gen("b", 0), module.act(gen("a", 0), v)) + module.act(
        gen("c", 0), module.act(gen("d", 0), v)
    )


def _require_epsilon_branch(module: FModule) -> None:
    """The one-dimensional V and the M-type x1 that the epsilon-criterion needs."""
    if not isinstance(module.v_space, OneDim):
        raise NotApplicable("criterion applies to the one-dimensional V only")
    if not isinstance(module.factors[1], MFactor):
        raise NotApplicable("criterion needs an M-type factor on x1")


class EpsilonSimplicity(Record):
    """The crossing -eps/beta - w, the x1-level where a's coefficient vanishes."""

    _fields = ("crossing",)

    def __init__(self, crossing: Fraction):
        self.crossing = crossing

    @property
    def simple(self) -> bool:
        return self.crossing.denominator != 1

    @property
    def witness(self) -> int | None:
        return None if self.simple else int(self.crossing)

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
    submodule is spanned by the x1-degrees <= n (proved by
    ``barrier_invariance_check``).
    """
    _require_epsilon_branch(module)
    return EpsilonSimplicity(-module.v_space.eps / module.beta - module.factors[1].weight)


def barrier_invariance_check(module: FModule, n: int) -> InvarianceReport:
    """Exact invariance of W_n = span{ x0^e x1^k : k <= n } under every X[m], m in Z.

    Here x0^e stands for d0^e (e >= 0) when P0 is of Omega type.  With V =
    C_eps and an M-type x1, every term of the ab table (``FModule.act`` reads
    it with h = -eps/beta and e = 0) sends x0^e x1^k to (k0 + k1 e_i) times
    x0^(e + m) x1^(k + delta), or, on an Omega(l)-type P0, times l^m (d0 -
    m)^(e + r) x1^(k + delta) with r <= 1, where k0 and k1 have degree at
    most the family's ``index_degrees`` in m and delta is a constant
    of the family: +1 for a, -1 for b and 0 for L, c and d.  So no family but
    a raises the x1-degree, a raises it by one, and W_n is invariant exactly
    when a[m] kills every x0^e x1^n.  The a-coefficient there is
    beta (w + n) + eps, zero when n is the epsilon-witness.

    The probes x0^0 x1^n and x0^1 x1^n settle every e: on an M-type P0
    the part of X[m] x0^e x1^n outside W_n is P(m, e) x0^(e + m)
    x1^(n + 1) with P affine in e; on an Omega(l)-type P0, X[m] acts on
    C[d0] as l^m tau^m (tau: d0 -> d0 - m) after a first-order operator
    P + Q d/dd0.  W_n is stable under powers of x0, so by the module's
    ``index_degrees`` the ``omega.orbit`` images settle every m.
    W_n is proper: x1^n lies in it and x1^(n + 1) does not.
    """
    _require_epsilon_branch(module)
    x1 = module.ring.index("x1")
    var0 = module.ring.names[0]
    probes = [module.ring.monomial({var0: e, "x1": n}) for e in (0, 1)]
    return invariance_check(module, probes, lambda f: all(exps[x1] <= n for exps in f.terms),
                            module.ring.monomial({"x1": n}), module.ring.monomial({"x1": n + 1}))
