"""Shared test oracles and the shipped JSON schemas."""

import json
import math
import random
import re
from fractions import Fraction as F
from importlib import resources

import pytest

from wittdiamond.axioms import random_vector
from wittdiamond.lie import bracket_terms, gen, generators_in_window
from wittdiamond.omega import RANK1_RING, OmegaModule, OmegaParams, Rank1ActionData
from wittdiamond.operators import TensorElement, tensor_algebra
from wittdiamond.poly import SparsePoly, monomials_within


def load_schema(name: str) -> dict:
    """A JSON schema shipped with the package, read from its installed file."""
    return json.loads(resources.files("wittdiamond").joinpath("schemas", name).read_text())


def _reference_violations(phi, window):
    """verify_hom's violation list recomputed with uv - vu and a summed bracket image."""
    gens = generators_in_window(window)
    out = []
    for i, x in enumerate(gens):
        for y in gens[i:]:
            u, v = phi.image(x), phi.image(y)
            rhs = TensorElement(phi.algebra)
            for g, c in bracket_terms(x, y):
                rhs = rhs + phi.image(g).scaled(c)
            if u * v - v * u != rhs:
                out.append((str(x), str(y)))
    return out


def reference_int_images(phi, gens):
    """``homomorphisms.int_images`` read from the image elements: each ``phi.image(g)``
    cleared to (key id, int) pairs over the lcm of all their denominators.  A test that
    plants a defect in ``image`` patches ``int_images`` with it, so ``verify_hom`` reads
    the plant."""
    tables = phi.algebra.brackets
    images = {g: phi.image(g).terms for g in gens}
    den = math.lcm(*(c.denominator for terms in images.values() for c in terms.values()))
    return den, {g: [(tables.id(k), c.numerator * (den // c.denominator)) for k, c in terms.items()]
                 for g, terms in images.items()}


# The uncached table reader, bound at import: no patch of a ``bracket_terms``
# binding reaches it, so a plant built on it never calls itself.
_read_bracket_table = bracket_terms.__wrapped__


def planted_bracket_terms(x, y):
    """``lie.bracket_terms`` with [L_m, z_n] = n (1 + m) z_{m+n} for z in {a, b, c, d}.

    Its Jacobi residual on (L_l, L_m, z_n) is l m n (m - l) z_{l+m+n}: degree 2
    in l and in m, zero whenever the indices lie in {0, 1}.  Every other pair
    is read from the table.  ``lie.bracket`` reads ``lie.bracket_terms``, so a
    test that patches the latter plants in both.
    """
    if x.family == "L" and y.family != "L":
        c = y.index * (1 + x.index)
        return ((gen(y.family, x.index + y.index), c),) if c else ()
    if y.family == "L" and x.family != "L":
        return tuple((g, -c) for g, c in planted_bracket_terms(y, x))
    return _read_bracket_table(x, y)


# The two term splitters that ``scalars.signed_terms`` replaced: a sign starts a
# term of a polynomial unless it follows "^", and a term of a word sum unless it
# sits inside a bracketed index.
FORMER_POLY_SPLIT = re.compile(r"(?<!\^)(?=[+-])")
FORMER_WORD_SPLIT = re.compile(r"(?=[+-](?![^\[\]]*\]))")


def former_terms(text, split):
    """(coefficient, words) per term, as the former parsers read them: each word
    that ``F`` reads is a coefficient factor, and every other word is kept."""
    text = text.strip()
    if not text or text == "0":
        return []
    out = []
    for raw in split.split(text.replace("*", " ")):
        raw = raw.strip()
        if not raw:
            continue
        sign = F(1)
        while raw and raw[0] in "+-":
            if raw[0] == "-":
                sign = -sign
            raw = raw[1:].strip()
        coef, words = sign, []
        for tok in raw.split():
            try:
                coef *= F(tok)
            except ValueError:
                words.append(tok)
        out.append((coef, words))
    return out


@pytest.fixture
def reference_violations():
    return _reference_violations


@pytest.fixture
def verify_hom_reads_images(monkeypatch):
    """``verify_hom`` reads each generator's image through ``phi.image``, where a test
    plants its defect, in place of the generator table."""
    from wittdiamond import homomorphisms

    monkeypatch.setattr(homomorphisms, "int_images", reference_int_images)


def criterion_08_modules():
    """(g, module) pairs of acceptance criterion 8: two seeded (beta, gamma) per g."""
    rng = random.Random(505)

    def rational(lo, hi, nonzero=False):
        while True:
            val = F(rng.randint(lo, hi), rng.randint(1, 4))
            if val or not nonzero:
                return val

    out = []
    for g in [(F(1), F(1)), (F(0), F(0), F(1)), (F(0), F(1), F(0), F(2))]:
        for _ in range(2):
            beta = rational(1, 4, nonzero=True) * rng.choice([1, -1])
            gamma = rational(-3, 3)
            out.append((g, OmegaModule(OmegaParams(F(1), beta, gamma, F(3), g))))
    return out


RANK_DEFECTS = ("L0-zero", "d0-gains-s", "d0-loses-t-g")
# Defects in the operator forms (A, B) that ``omega.classify_rank1`` checks in its
# round trip: six in an A part, three in a d/dt (B) part.
CLASSIFY_DEFECTS = ("L1-zero", "L1-gains-t", "b0-gains-s", "c0-gains-f",
                    "d0-gains-s", "d0-loses-t-g", "b0-gains-dt", "d0-loses-t-dt", "a0-gains-dt")


def planted_rank_defect(act, defect):
    """``act(module, g, f)`` of an Omega module with one defect planted in one generator.

    L0-zero: L[0] acts as zero.  d0-gains-s: d[0] f gains the term s f.
    d0-loses-t-g: d[0] f loses its t g(t) f / beta part, so d[0] keeps the t-degree.
    L1-zero: L[1] acts as zero, so no lambda can be read.  L1-gains-t: L[1] f
    gains t f.  b0-gains-s: b[0] f gains s f.  c0-gains-f: c[0] f gains f.
    b0-gains-dt: b[0] f gains df/dt.  d0-loses-t-dt: d[0] f loses t df/dt.
    a0-gains-dt: a[0] f gains df/dt.  The last three change B and leave A alone.
    """
    def planted(module, g, f):
        out = act(module, g, f)
        ring, par = module.ring, module.params
        if defect == "L0-zero" and g == gen("L", 0):
            return ring.zero()
        if defect == "d0-gains-s" and g == gen("d", 0):
            return out + ring.var("s") * f
        if defect == "d0-loses-t-g" and g == gen("d", 0):
            return out - ring.from_terms(((0, k + 1), c / par.beta) for k, c in enumerate(par.g)) * f
        if defect == "L1-zero" and g == gen("L", 1):
            return ring.zero()
        if defect == "L1-gains-t" and g == gen("L", 1):
            return out + ring.var("t") * f
        if defect == "b0-gains-s" and g == gen("b", 0):
            return out + ring.var("s") * f
        if defect == "c0-gains-f" and g == gen("c", 0):
            return out + f
        if defect == "b0-gains-dt" and g == gen("b", 0):
            return out + f.derive("t")
        if defect == "d0-loses-t-dt" and g == gen("d", 0):
            return out - ring.var("t") * f.derive("t")
        if defect == "a0-gains-dt" and g == gen("a", 0):
            return out + f.derive("t")
        return out

    return planted


def formula_rank1_data(par):
    """Rank-one action data of an Omega module, written from its defining formulas.

    p = alpha, B0 = g(a0), C0 = -beta and D0 = (a0 g(a0) + gamma) / beta; no
    code of the action is reused.
    """
    g = RANK1_RING.from_terms(((0, k), c) for k, c in enumerate(par.g))
    return Rank1ActionData(lam=par.lam, p=RANK1_RING.const(par.alpha), B0=g,
                           C0=RANK1_RING.const(-par.beta),
                           D0=(RANK1_RING.var("a0") * g + par.gamma) * (1 / par.beta))


def poly_power(p, k):
    """p^k for a natural number k, as k plain products."""
    out = p.ring.one()
    for _ in range(k):
        out = out * p
    return out


def docstring_action(par, ring, svar, tvar, g, f):
    """The omega module docstring's formula for g f on the factor (svar, tvar) of ring.

    f(s - n, t) is formed by substitution, so no code of the action is reused.
    """
    n, lam_n = g.index, par.lam**g.index
    s, t = ring.var(svar), ring.var(tvar)
    i = ring.index(svar)
    fs = ring.zero()
    for e, c in f.terms.items():
        fs = fs + ring.from_terms([(e[:i] + (0,) + e[i + 1 :], c)]) * poly_power(s - n, e[i])
    j = ring.index(tvar)
    dt_fs = ring.from_terms(
        (e[:j] + (e[j] - 1,) + e[j + 1 :], c * e[j]) for e, c in fs.terms.items() if e[j]
    )
    g_t = ring.zero()
    for k, c in enumerate(par.g):
        g_t = g_t + ring.var(tvar, k) * c
    if g.family == "L":
        return (s + n * par.alpha) * fs * lam_n
    if g.family == "d":
        return (t * g_t + par.gamma) * fs * (lam_n / par.beta) + t * dt_fs * lam_n
    if g.family == "a":
        return t * fs * lam_n
    if g.family == "b":
        return g_t * fs * lam_n + dt_fs * (lam_n * par.beta)
    return fs * (-lam_n * par.beta)


def sample_vectors(ring, rng, count=4, max_total_degree=3):
    """A spread of test vectors: the unit, a few monomials, random mixes."""
    vecs = [ring.one()]
    pool = [e for e in monomials_within(ring, max_total_degree) if any(e)]
    for exps in rng.sample(pool, min(2, len(pool))):
        vecs.append(SparsePoly(ring, {exps: F(1)}))
    while len(vecs) < count + 1:
        vecs.append(random_vector(ring, rng, max_total_degree))
    return vecs


def pure(left, right):
    """The pure tensor left (x) right of two ``OperatorElement``s."""
    terms = {(kl, kr): cl * cr for kl, cl in left.terms.items() for kr, cr in right.terms.items()}
    return TensorElement(tensor_algebra(left.algebra, right.algebra), terms)
