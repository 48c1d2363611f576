"""The two operator-algebra homomorphisms out of the enveloping algebra.

``PhiAB`` sends the algebra into (degree-2 Laurent Weyl algebra) (x) U(b);
``PhiABGG`` sends it onto (degree-1 Laurent Weyl algebra) (x) (polynomial
differential operators).  Both are defined on generators, by data that each
map builds once as ``table`` (``ab_terms``, ``abgg_terms``) and ``evaluate``
reads at an index, each monomial written as its parts, one (exponent,
d-exponent) pair per coordinate; ``term_key`` alone makes parts a key of the
``operators.TensorAlgebra`` a map holds as ``algebra``, where each map is
extended to PBW words multiplicatively.  ``index_degree`` reads each family's
degree in the index, the premise of every index grid here.  ``verify_hom``
checks that the table respects every bracket, on an index window that the
table's degrees prove complete, in integers from the key ids and bracket
tables that the algebra owns as ``brackets``: ``int_images`` reads the images
from the table in ints, with no image element built.  The witness lists
exhibit preimages of the standard generating operators, each replayable
exactly, their targets written as parts too, and the ``CorruptedPhiAB``
control is the ab table with one term dropped.  The module actions of ``fock``
and ``omega`` are their pullbacks: each module is a ``PullbackModule``, which
compiles a generator's action from the parts and reads its index degrees with
``index_degree``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exceptions import InvalidGenerator, InvalidSpec
from .lie import Generator, UEnvElement, bracket_terms, gen, generators_in_window
# Not called here; perfbench/selftest.py lists this binding in IMPORTED_BINDINGS and
# checks that its tracer rebinds it.
from .lie import bracket  # noqa: F401
from .operators import (
    DIFFOP,
    R0,
    R2,
    UB,
    TensorElement,
    WeylAlgebra,
    pullback_rules,
    tensor_algebra,
)
from .poly import PolyRing, SparsePoly
from .scalars import ONE, ZERO, Frozen, Record, add_scaled, scalar


def ab_terms(alpha: Fraction, beta: Fraction) -> dict[str, tuple]:
    """The generator table of ``PhiAB(alpha, beta)``: each family's terms (parts, coefficient),
    the parts being the exponent pairs ((x0, dx0), (x1, dx1), (h, e)) with x0's exponent an
    offset from the index n, and the coefficient a polynomial in n, constant term first."""
    one, h, e = (0, 0), (1, 0), (0, 1)
    return {
        "L": ((((1, 1), one, one), (ONE,)), ((one, one, one), (ZERO, alpha)),
              ((one, one, h), (ZERO, ONE))),
        "d": (((one, (1, 1), one), (ONE,)), ((one, one, e), (ZERO, ONE))),
        "a": (((one, (2, 1), one), (beta,)), ((one, (1, 0), h), (-beta,)),
              ((one, (1, 0), e), (ZERO, beta))),
        "b": (((one, (-1, 0), one), (ONE,)),),
        "c": (((one, one, one), (-beta,)),),
    }


def abgg_terms(alpha: Fraction, beta: Fraction, gamma: Fraction,
               g: tuple[Fraction, ...]) -> dict[str, tuple]:
    """The generator table of ``PhiABGG(alpha, beta, gamma, g)`` in the form of ``ab_terms``, with
    the parts ((x0, dx0), (t, dt))."""
    one = (0, 0)
    return {
        "L": ((((1, 1), one), (ONE,)), ((one, one), (ZERO, alpha))),
        "d": (*(((one, (k + 1, 0)), (c / beta,)) for k, c in enumerate(g)),
              ((one, one), (gamma / beta,)), ((one, (1, 1)), (ONE,))),
        "a": (((one, (1, 0)), (ONE,)),),
        "b": (*(((one, (k, 0)), (c,)) for k, c in enumerate(g)), ((one, (0, 1)), (beta,))),
        "c": (((one, one), (-beta,)),),
    }


def evaluate(table: dict[str, tuple], family: str, n: int) -> list:
    """family[n]'s image as (parts at n, coefficient) pairs, in table order with zeros kept."""
    if family not in table:
        raise InvalidGenerator(f"unknown generator family {family!r}")
    out = []
    for ((x0, d0), *rest), coef in table[family]:
        c = coef[-1]
        for a in coef[-2::-1]:  # Horner's rule
            c = c * n + a if a else c * n
        out.append((((x0 + n, d0), *rest), c))
    return out


def term_key(algebra, parts):
    """The key of ``algebra``, a ``TensorAlgebra``, of the monomial with these parts: one
    (exponent, d-exponent) part per coordinate of the left Weyl algebra, then one (h, e) part
    on U(b) or one part per coordinate of a right Weyl algebra."""
    k = len(algebra.left.names)
    xs, ds = zip(*parts[:k])
    right = tuple(zip(*parts[k:])) if isinstance(algebra.right, WeylAlgebra) else parts[k]
    return (xs, ds), right


def index_degree(terms, order=lambda term: 0) -> int:
    """The n-degree of a family's ``terms`` in the form of ``ab_terms``, coefficient last: the
    largest over the terms of the coefficient's degree plus ``order(term)``.

    A family of ``ab_terms`` or ``abgg_terms`` acting on a module adds each term's
    ``dx0_order``: moving x0^n past dx0^o costs a falling factorial of degree o in n, in the
    target algebra and where x0^n acts as l^n (d0 -> d0 - n), so there a term c(n) x0^(n + k)
    dx0^o takes a vector of d0-degree p to l^n times a polynomial in n of degree at most
    deg c + o + p (deg c where x0 acts by a weight).  ``poly.vanishes`` states the grid lemma.
    """
    return max(len(term[-1]) - 1 + order(term) for term in terms)


def dx0_order(term) -> int:
    """The d/dx0-order of a term of ``ab_terms`` or ``abgg_terms``."""
    return term[0][0][1]


class PullbackModule:
    """A module on ``ring`` whose generators act as a sum of pullbacks of generator tables.

    A pullback is (table, factor actions, scale, index variable or None): g acts as
    ``evaluate(table, g.family, g.index)``, each part of a monomial by its factor action
    (``operators.pullback_rules``), and x0^n as scale^n times n shifts of the index
    variable, or by a weight (scale 1, no index variable).
    ``fock.FModule`` has one pullback of the ab table, ``omega.RankOneProduct``
    one of the abgg table per factor.
    """

    def __init__(self, ring: PolyRing, pullbacks: Sequence[tuple]):
        self.ring = ring
        self.pullbacks = tuple(pullbacks)
        self.act_rules: dict = {}  # ``rules``'s compiled rules, by generator

    def one(self) -> SparsePoly:
        return self.ring.one()

    def rules(self, g: Generator) -> tuple[list, int]:
        """``(rules, den)`` of g for ``poly.act_by_rules``: every pullback's image of g,
        compiled over one denominator on the first call for g and kept in ``act_rules``."""
        rules = self.act_rules.get(g)
        if rules is None:
            rules = self.act_rules[g] = pullback_rules([
                (evaluate(table, g.family, g.index), actions)
                for table, actions, _, _ in self.pullbacks])
        return rules

    def index_degrees(self, family: str, v: SparsePoly) -> dict[Fraction, int]:
        """{scale: D}: X[n] v = sum_scale scale^n P(n), deg P <= D, the largest over the
        pullbacks of that scale of the family's ``index_degree`` plus v's degree in the
        index variable (0 without one, where the bound is on x0^-n X[n] v); the
        ``omega.orbit`` images then settle X[n] v for every n in Z."""
        degrees: dict[Fraction, int] = {}
        for table, _, scale, var in self.pullbacks:
            d = index_degree(table[family], dx0_order) + ((v.var_degree(var) or 0) if var else 0)
            degrees[scale] = max(degrees.get(scale, 0), d)
        return degrees


class PhiAB(Frozen):
    """The map into (Weyl degree 2) (x) U(b); its generator table is ``ab_terms``.

    With d0 and d1 denoting the Euler operators x_i d/dx_i:

        L[n] -> x0^n (d0 + n alpha) (x) 1  +  n x0^n (x) h
        d[n] -> x0^n d1 (x) 1  +  n x0^n (x) e
        a[n] -> beta x0^n x1 d1 (x) 1  -  beta x0^n x1 (x) (h - n e)
        b[n] -> x0^n x1^-1 (x) 1
        c[n] -> -beta x0^n (x) 1

    The n-linear tensor terms form a cocycle for the zero-index part: the
    U(b) coefficients attached to L, d and a are forced (up to one global
    scale, fixed here so that d[n] carries exactly n x0^n (x) e) by the
    bracket relations together with the images of b and c.  In particular
    the h-part of a[n] must carry the factor -beta: the commutator of two
    a-images acquires a (beta + eigenvalue-of-ad-h) factor on its e-term,
    and only eigenvalue -beta cancels it.
    """

    _fields = ("alpha", "beta")
    algebra = tensor_algebra(R2, UB)

    def __init__(self, alpha: Fraction, beta: Fraction):
        alpha, beta = scalar(alpha), scalar(beta)
        if beta == 0:
            raise InvalidSpec("beta must be nonzero")
        self._set(alpha=alpha, beta=beta, table=ab_terms(alpha, beta))

    def one(self) -> TensorElement:
        return TensorElement.one(self.algebra)

    def image(self, g: Generator) -> TensorElement:
        return TensorElement(self.algebra, {term_key(self.algebra, parts): c for parts, c
                                            in evaluate(self.table, g.family, g.index)})

    def apply(self, u: UEnvElement) -> TensorElement:
        return _apply(self, u)


class CorruptedPhiAB(PhiAB):
    """Negative control: its table is ``ab_terms`` without d[n]'s n x0^n (x) e term."""

    def __init__(self, alpha: Fraction, beta: Fraction):
        super().__init__(alpha, beta)
        table = dict(self.table)
        table["d"] = tuple(term for term in table["d"] if term[0][-1] != (0, 1))
        self._set(table=table)

    # The class's own binding, which the benchmark's tracer wraps by this name.
    image = PhiAB.image


class PhiABGG(Frozen):
    """The surjection onto (Weyl degree 1) (x) diff ops; its generator table is ``abgg_terms``.

    ``g`` is the coefficient tuple of a polynomial g(t) in the differential
    variable, constant term first.  With d0 = x0 d/dx0 and dt = d/dt:

        L[n] -> x0^n (d0 + n alpha) (x) 1
        d[n] -> x0^n (x) ((t g(t) + gamma) / beta + t dt)
        a[n] -> x0^n (x) t
        b[n] -> x0^n (x) (g(t) + beta dt)
        c[n] -> -beta x0^n (x) 1
    """

    _fields = ("alpha", "beta", "gamma", "g")
    algebra = tensor_algebra(R0, DIFFOP)

    def __init__(self, alpha: Fraction, beta: Fraction, gamma: Fraction, g: tuple[Fraction, ...]):
        alpha, beta, gamma = scalar(alpha), scalar(beta), scalar(gamma)
        g = tuple(scalar(c) for c in g)
        if beta == 0:
            raise InvalidSpec("beta must be nonzero")
        self._set(alpha=alpha, beta=beta, gamma=gamma, g=g, table=abgg_terms(alpha, beta, gamma, g))

    def one(self) -> TensorElement:
        return TensorElement.one(self.algebra)

    # PhiAB's reader, as the class's own binding, which the benchmark's tracer wraps.
    image = PhiAB.image

    def apply(self, u: UEnvElement) -> TensorElement:
        return _apply(self, u)


def _apply(phi, u: UEnvElement) -> TensorElement:
    total: dict = {}
    for word, c in u.terms.items():
        acc = phi.one()
        for letter in word:
            acc = acc * phi.image(letter)
        add_scaled(total, acc.terms, c)
    return TensorElement(phi.algebra)._like(total)


class HomReport(Record):
    _fields = ("window", "max_index_degree", "pairs_checked", "violations")

    def __init__(self, window: int, max_index_degree: int, pairs_checked: int,
                 violations: list[tuple[str, str]]):
        self.window = window
        self.max_index_degree = max_index_degree
        self.pairs_checked = pairs_checked
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def int_images(phi, gens) -> tuple[int, dict]:
    """``(den, {g: [(key id, numerator), ...]})``: the image of each generator of ``gens``,
    read from ``phi.table`` as key ids of ``phi.algebra.brackets`` and int numerators over
    one denominator, zeros dropped.

    ``den`` is the lcm of the denominators of the table's coefficients, so every family's
    coefficient polynomial is cleared to ints once and evaluated at each index by Horner's
    rule in ints.  A term's key at index n is looked up by n in the id row that the tables
    keep for the term's parts, and built (``term_key``) and given its id on first sight only.
    """
    tables = phi.algebra.brackets
    id_rows = tables.id_rows
    den = math.lcm(*(c.denominator for family in phi.table.values()
                     for _, coef in family for c in coef))
    cleared = {family: [(id_rows.setdefault(parts, {}), parts,
                         [c.numerator * (den // c.denominator) for c in reversed(coef)])
                        for parts, coef in terms]
               for family, terms in phi.table.items()}
    nums = {}
    for g in gens:
        n, out = g.index, []
        for row, parts, coef in cleared[g.family]:
            c = 0
            for a in coef:  # Horner's rule, leading coefficient first
                c = c * n + a
            if c:
                i = row.get(n)
                if i is None:
                    (x0, d0), *rest = parts
                    i = row[n] = tables.id(term_key(tables.algebra, ((x0 + n, d0), *rest)))
                out.append((i, c))
        nums[g] = out
    return den, nums


def verify_hom(phi, window: int = 1) -> HomReport:
    """Check the bracket compatibility of the generator table ``phi.table``.

    For every generator pair with indices in [-w, w], the commutator of the
    images must equal the image of the bracket.  The bracket is a linear
    combination of generators and the map is linear, so its image is the
    same combination of generator images, whose indices lie in [-2 w, 2 w].

    The check does no rational arithmetic per pair and builds no image
    element.  ``int_images`` reads every image of that doubled window from
    the table as a list of (id, int) pairs: the ids that
    ``phi.algebra.brackets`` gives its keys, and integer numerators over one
    denominator ``den``.  Each left generator looks up the bracket-table row
    of each of its terms once; for each pair, every term of the right image
    finds its table in that row by hashing one int (a pair of commuting
    monomials has an empty table and costs nothing), and the commutator of
    the two images is summed from the tables into one int dict, over
    ``den**2``.  Each term ``c_g g`` of ``bracket_terms(x, y)``, read from the
    cache with no element built, is then subtracted into the same dict as
    ``c_g den`` times the numerators of ``phi(g)``.
    ``[phi(x), phi(y)] - sum_g c_g phi(g)`` is zero, and the pair passes,
    exactly when every value left is zero.  ``pairs_checked`` counts the
    pairs the loop reads.

    The window w = max(window, ceil(D / 2)) settles every pair in Z.  With c
    the table's largest coefficient degree (``index_degree``) and o its
    largest ``dx0_order``, ``[phi(x_m), phi(y_n)] / x0^(m+n)`` has degree at
    most c + o in each index and each bracket constant at most 1, so the
    defect has degree at most D = c + max(o, 1), and 2 w + 1 points decide it
    (``poly.vanishes``).
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    all_terms = [term for family in phi.table.values() for term in family]
    degree = index_degree(all_terms) + max(1, *map(dx0_order, all_terms))
    window = max(window, -(-degree // 2))
    gens = generators_in_window(window)
    tables = phi.algebra.brackets
    rows = tables.rows
    den, nums = int_images(phi, generators_in_window(2 * window))
    violations = []
    pairs = 0
    for i, x in enumerate(gens):
        left = [(i1, n1, rows[i1]) for i1, n1 in nums[x]]
        partners = gens[i:]
        pairs += len(partners)
        for y in partners:
            right = nums[y]
            out: dict = {}
            get = out.get
            for i1, n1, row in left:
                for i2, n2 in right:
                    table = row.get(i2)
                    if table is None:
                        table = tables[i1, i2]
                    if table:
                        n12 = n1 * n2
                        for k, n in table:
                            out[k] = get(k, 0) + n12 * n
            for g, c in bracket_terms(x, y):
                s = c * den
                for k, n in nums[g]:
                    out[k] = get(k, 0) - s * n
            if any(out.values()):
                violations.append((str(x), str(y)))
    return HomReport(window=window, max_index_degree=degree, pairs_checked=pairs,
                     violations=violations)


class Witness(Record):
    """A named target operator together with preimage(s) under the map."""

    _fields = ("name", "pairs")

    def __init__(self, name: str, pairs: list[tuple[TensorElement, UEnvElement]]):
        self.name = name
        self.pairs = pairs

    def check(self, phi) -> bool:
        return all(phi.apply(pre) == target for target, pre in self.pairs)


def _word(*gens: Generator) -> UEnvElement:
    return UEnvElement.from_word(gens)


def _witnesses(phi, rows) -> list[Witness]:
    """``Witness`` records from rows (name, [(target parts, preimage), ...]); each target is
    one monomial with coefficient 1, its parts in the form of ``phi.table``'s."""
    return [Witness(name, [(TensorElement(phi.algebra, {term_key(phi.algebra, parts): ONE}), pre)
                           for parts, pre in pairs])
            for name, pairs in rows]


def image_witnesses(phi: PhiAB) -> list[Witness]:
    """The seven operators exhibited inside the image of the degree-2 map.

    The preimages of x1 (x) e, 1 (x) e and 1 (x) h carry normalizations
    induced by the -beta factor on the U(b)-part of the a-images.
    """
    binv = 1 / phi.beta
    c1, cm1, c0 = gen("c", 1), gen("c", -1), gen("c", 0)
    a0, a1, b0, d0, L0 = gen("a", 0), gen("a", 1), gen("b", 0), gen("d", 0), gen("L", 0)
    one, h, e = (0, 0), (1, 0), (0, 1)
    x1e_pre = (_word(cm1, a1) - _word(c0, a0)).scaled(-binv * binv)
    return _witnesses(phi, [
        ("x0^{+1,-1} (x) 1", [(((1, 0), one, one), _word(c1).scaled(-binv)),
                              (((-1, 0), one, one), _word(cm1).scaled(-binv))]),
        ("dx0 (x) 1", [(((0, 1), one, one), _word(cm1, L0).scaled(-binv))]),
        ("x1 (x) e", [((one, (1, 0), e), x1e_pre)]),
        ("x1^-1 (x) 1", [((one, (-1, 0), one), _word(b0))]),
        ("1 (x) e", [((one, one, e), x1e_pre * _word(b0))]),
        ("1 (x) h", [((one, one, h), _word(d0) - _word(b0, a0).scaled(binv))]),
        ("dx1 (x) 1", [((one, (0, 1), one), _word(b0, d0))]),
    ])


def surjectivity_witnesses(phi: PhiABGG) -> list[Witness]:
    """Preimages of the four generators of the target tensor algebra."""
    binv = 1 / phi.beta
    a0 = gen("a", 0)
    one = (0, 0)
    g_of_a0 = UEnvElement({(a0,) * k: c for k, c in enumerate(phi.g)})
    return _witnesses(phi, [
        ("x0^{+1,-1} (x) 1", [(((1, 0), one), _word(gen("c", 1)).scaled(-binv)),
                              (((-1, 0), one), _word(gen("c", -1)).scaled(-binv))]),
        ("d0 (x) 1", [(((1, 1), one), _word(gen("L", 0)))]),
        ("1 (x) t", [((one, (1, 0)), _word(a0))]),
        ("1 (x) dt", [((one, (0, 1)), (_word(gen("b", 0)) - g_of_a0).scaled(binv))]),
    ])


def check_all_witnesses(phi, witnesses: Sequence[Witness]) -> list[str]:
    """Names of witnesses that fail to round-trip (empty list means all pass)."""
    return [w.name for w in witnesses if not w.check(phi)]
