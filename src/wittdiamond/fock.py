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

from fractions import Fraction

from .exceptions import InvalidGenerator, InvalidSpec, NotWeight, UnsupportedOperation
from .lie import Generator, gen
from .omega import InvarianceReport, invariance_check
from .poly import PolyRing, SparsePoly, act_by_rules, monomials_within
from .scalars import ONE, ZERO, Frozen, Record, clear_denominators, scalar


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

        # alpha, beta, eps, w_0, w_1 (0 if absent) as ints over one D; x^m: M raises, Omega shifts.
        eps = v_space.eps if isinstance(v_space, OneDim) else 0
        ws = [f.weight if isinstance(f, MFactor) else 0 for f in self.factors]
        nums, den = clear_denominators(dict(enumerate((self.alpha, self.beta, eps, *ws))))
        self._ints = (den, *nums.values())
        self._x = [(1, 0, ONE) if isinstance(f, MFactor) else (0, 1, f.lam) for f in self.factors]

    def one(self) -> SparsePoly:
        return self.ring.one()

    def act(self, g: Generator, v: SparsePoly) -> SparsePoly:
        """g v by the docstring's table, as ``poly.act_by_rules`` rules built per call:
        a rule (c, c1, i, r0, r1, h) puts c + c1 e_i on x^e, raises the factors'
        exponents by r0 and r1 and applies the h-ops h (H: times h, S: h -> h - 1,
        the action of e).  The Euler operator x_i d/dx_i is w + e_i on M(w) and a
        raise of d_i on Omega.  x0^n and x1^k (k = 1 for a, -1 for b) follow:
        they raise x_i on M and shift d_i -> d_i - n, times l^n, on Omega(l).
        """
        (D, A, B, E, *W), n = self._ints, g.index
        whittaker, H, S = isinstance(self.v_space, Whittaker), ((2, 1, 0),), ((2, 0, 1),)

        def euler(i, c):
            if isinstance(self.factors[i], MFactor):
                return (c * W[i], c * D, i, 0, 0, ())
            return (c * D, 0, 0, 1 - i, i, ())

        k, den = 0, D
        if g.family == "L":
            rules = [euler(0, 1), (n * A, 0, 0, 0, 0, ())] + whittaker * [(n * D, 0, 0, 0, 0, H)]
        elif g.family == "d":
            rules = [euler(1, 1)] + whittaker * [(n * D, 0, 0, 0, 0, S)]
        elif g.family == "a":
            k, den = 1, D * D
            ub = [(-B * D, 0, 0, 0, 0, H), (n * B * D, 0, 0, 0, 0, S)]
            rules = [euler(1, B)] + (ub if whittaker else [(E * D, 0, 0, 0, 0, ())])
        elif g.family == "b":
            k, den, rules = -1, 1, [(1, 0, 0, 0, 0, ())]
        elif g.family == "c":
            rules = [(-B, 0, 0, 0, 0, ())]
        else:
            raise InvalidGenerator(f"unknown generator family {g.family!r}")
        (a0, s0, l0), (a1, s1, l1) = self._x
        ops = [(c, c1, i, ((0, r0 + a0 * n, s0 * n), (1, r1 + a1 * k, s1 * k)) + h)
               for c, c1, i, r0, r1, h in rules]
        return act_by_rules(v, ops, den, (l0, n), (l1, k))

    def index_degrees(self, family: str, v: SparsePoly) -> dict[Fraction, int]:
        """{scale: D}: X[n] v is scale^n times a polynomial in n of degree at most D.

        Every rule of ``act`` carries x0^n: l^n times d0 -> d0 - n on an
        Omega(l)-type P0 (scale l), a raise of x0 by n on an M-type one
        (scale 1; the bound is on x0^-n X[n] v).  D = [X = L] (L's n alpha,
        and its n h on the Whittaker V) + [V Whittaker and X in {a, d}]
        (their n e) + the d0-degree p of v ((d0 - n)^p); x1 moves by a
        power fixed by the family.  Grid lemma (Alon 1999, Combinatorial
        Nullstellensatz, Lemma 2.1): a polynomial of degree at most D that
        vanishes at D + 1 points is zero.  So modulo a subspace W stable
        under powers of x0, the D + 1 images of ``omega.orbit`` settle
        X[n] v for every n in Z.
        """
        p0 = self.factors[0]
        omega_p0 = isinstance(p0, OmegaFactor)
        degree = ((family == "L") + (isinstance(self.v_space, Whittaker) and family in ("a", "d"))
                  + (omega_p0 and (v.var_degree("d0") or 0)))
        return {p0.lam if omega_p0 else ONE: degree}


def q_action(module: FModule, v: SparsePoly) -> SparsePoly:
    """Apply b[0] a[0] + c[0] d[0]."""
    return module.act(gen("b", 0), module.act(gen("a", 0), v)) + module.act(
        gen("c", 0), module.act(gen("d", 0), v)
    )


def _require_epsilon_branch(module: FModule) -> None:
    """The one-dimensional V and the M-type x1 that the epsilon-criterion needs."""
    if not isinstance(module.v_space, OneDim):
        raise UnsupportedOperation("criterion applies to the one-dimensional V only")
    if not isinstance(module.factors[1], MFactor):
        raise UnsupportedOperation("criterion needs an M-type factor on x1")


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
    C_eps and an M-type x1, every rule of ``FModule.act``'s table sends
    x0^e x1^k to (k0 + k1 e_i) times x0^(e + m) x1^(k + delta), or, on an
    Omega(l)-type P0, times l^m (d0 - m)^(e + r) x1^(k + delta) with r <= 1,
    where k0 and k1 have degree [X = L] in m and delta is a constant of the
    family: +1 for a, -1 for b and 0 for L, c and d.  So no family but a
    raises the x1-degree, a raises it by one, and W_n is invariant exactly
    when a[m] kills every x0^e x1^n.  The a-coefficient there is
    beta (w + n) + eps, zero when n is the epsilon-witness.

    The probes x0^0 x1^n and x0^1 x1^n settle every e: on an M-type P0
    the part of X[m] x0^e x1^n outside W_n is P(m, e) x0^(e + m)
    x1^(n + 1) with P affine in e; on an Omega(l)-type P0, X[m] acts on
    C[d0] as l^m tau^m (tau: d0 -> d0 - m) after a first-order operator
    P + Q d/dd0.  W_n is stable under powers of x0, so the grid lemma of
    ``FModule.index_degrees`` settles every m from ``omega.orbit`` images.
    W_n is proper: x1^n lies in it and x1^(n + 1) does not.
    """
    _require_epsilon_branch(module)
    x1 = module.ring.index("x1")
    var0 = module.ring.names[0]
    probes = [module.ring.monomial({var0: e, "x1": n}) for e in (0, 1)]
    return invariance_check(module, probes, lambda f: all(exps[x1] <= n for exps in f.terms),
                            module.ring.monomial({"x1": n}), module.ring.monomial({"x1": n + 1}))


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
