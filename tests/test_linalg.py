"""Exact linear algebra, cross-checked against determinant-based oracles."""

import itertools
import random
import time
from fractions import Fraction as F
from math import gcd

import pytest
from oracles import FractionSpanBasis, fraction_combination, fraction_nullspace, span_vectors

from wittdiamond import linalg, omega, tensor
from wittdiamond.linalg import SpanBasis, combination, exact_det, exact_nullspace
from wittdiamond.lie import gen
from wittdiamond.omega import OmegaModule, OmegaParams, omega_reduce_to_one
from wittdiamond.oracle import naive_det
from wittdiamond.tensor import TensorModule, tensor_generate, tensor_reduce_to_bottom


def minor_rank(matrix):
    """Rank as the largest k with a nonzero k x k minor."""
    n = len(matrix)
    m = len(matrix[0]) if matrix else 0
    for k in range(min(n, m), 0, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                if naive_det(sub) != 0:
                    return k
    return 0


def sparse(entries):
    """A dense list as a sparse vector keyed by position."""
    return {i: x for i, x in enumerate(entries) if x}


def columns_of(matrix):
    """The columns of a dense matrix as sparse vectors keyed by row index."""
    return [sparse(col) for col in zip(*matrix)]


def span_dim(vectors):
    basis = SpanBasis()
    for v in vectors:
        basis.add(v)
    return basis.dim


def assert_rank(matrix, rank):
    """SpanBasis.dim of the rows and columns - relations both give ``rank``."""
    columns = columns_of(matrix)
    assert span_dim(sparse(row) for row in matrix) == rank
    assert len(columns) - len(exact_nullspace(columns)) == rank


def test_nullspace_proportional_rows():
    assert exact_nullspace([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]) == [[F(-2), F(1)]]
    assert exact_nullspace([]) == []


def test_rank_matches_minor_oracle_2x2_exhaustive():
    vals = [F(v) for v in range(-3, 4)]
    for a, b, c, d in itertools.product(vals, repeat=4):
        m = [[a, b], [c, d]]
        assert_rank(m, minor_rank(m))


def test_rank_matches_minor_oracle_random_3x3_4x4():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.choice([3, 4])
        m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        assert_rank(m, minor_rank(m))


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(9)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)] for _ in range(rows)]
        basis = exact_nullspace(columns_of(m))
        assert span_dim(sparse(row) for row in m) + len(basis) == cols
        for v in basis:
            for row in m:
                assert sum(a * x for a, x in zip(row, v)) == 0


def sparse_matrix(rng, nrows, ncols):
    """At least half zeros, one zero row, one zero column and a repeated row."""
    m = [
        [F(rng.randint(-4, 4) or 1, rng.randint(1, 3)) if rng.random() < 0.4 else F(0)
         for _ in range(ncols)]
        for _ in range(nrows)
    ]
    zero_row, *copy = rng.sample(range(nrows), min(nrows, 3))
    m[zero_row] = [F(0)] * ncols
    zero_col = rng.randrange(ncols)
    for row in m:
        row[zero_col] = F(0)
    if copy[1:]:
        m[copy[1]] = [x * F(-3, 2) for x in m[copy[0]]]
    return m


def dense_rref(rows):
    """Textbook Gauss-Jordan on a copy: every entry of every row, every step."""
    rows = [list(r) for r in rows]
    pivots, r = [], 0
    for col in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def test_sparse_matrices_rank_kernel_and_solutions():
    rng = random.Random(83)
    for trial in range(80):
        small = trial < 40
        nrows, ncols = (rng.randint(2, 4), rng.randint(2, 5)) if small else (
            rng.randint(5, 12), rng.randint(5, 14))
        m = sparse_matrix(rng, nrows, ncols)
        assert sum(x == 0 for row in m for x in row) * 2 >= nrows * ncols
        red, pivots = dense_rref(m)
        assert_rank(m, len(pivots))
        if small:
            assert len(pivots) == minor_rank(m)
        columns = columns_of(m)
        basis = exact_nullspace(columns)
        assert span_dim(sparse(v) for v in basis) == len(basis)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        # the kernel basis is the one the reduced rows give, entry for entry
        free = [c for c in range(ncols) if c not in pivots]
        assert len(basis) == len(free)
        for v, fc in zip(basis, free):
            assert v == [F(c == fc) if c not in pivots else -red[pivots.index(c)][fc]
                         for c in range(ncols)]

        x0 = [F(rng.randint(-2, 2)) if rng.random() < 0.5 else F(0) for _ in range(ncols)]
        target = [sum(m[i][j] * x0[j] for j in range(ncols)) for i in range(nrows)]
        x = combination(columns, sparse(target))
        assert [sum(m[i][j] * x[j] for j in range(ncols)) for i in range(nrows)] == target
        assert all(x[c] == 0 for c in free)
        # the solution with free variables zero, entry for entry
        red_aug, piv_aug = dense_rref([row + [t] for row, t in zip(m, target)])
        assert x == [red_aug[piv_aug.index(c)][ncols] if c in piv_aug else F(0)
                     for c in range(ncols)]
        # a target with a 1 in the zero row is out of the column span
        zero_row = next(i for i, row in enumerate(m) if not any(row))
        off = sparse(target)
        off[zero_row] = F(1)
        assert combination(columns, off) is None


def test_repeated_and_zero_vectors_get_coefficient_zero():
    vs = [{"a": F(1)}, {}, {"a": F(1)}, {"b": F(-2)}]
    assert combination(vs, {"a": F(2), "b": F(3)}) == [F(2), F(0), F(0), F(-3, 2)]
    assert combination(vs, {}) == [F(0)] * 4
    assert combination(vs, {"c": F(1)}) is None
    assert combination(vs, {"a": F(1), "c": F(1)}) is None
    assert exact_nullspace(vs) == [[F(0), F(1), F(0), F(0)], [F(-1), F(0), F(1), F(0)]]


def dense_solve(vectors, target):
    """One x with sum_j x_j vectors[j] = target, free variables zero, or None."""
    keys = sorted(set(target).union(*vectors))
    n = len(vectors)
    if not keys:
        return [F(0)] * n
    red, pivots = dense_rref([[v.get(k, F(0)) for v in vectors] + [target.get(k, F(0))]
                              for k in keys])
    if n in pivots:
        return None
    return [red[pivots.index(c)][n] if c in pivots else F(0) for c in range(n)]


def dense_kernel(vectors):
    """The kernel basis the reduced rows give: one vector per free column."""
    keys = sorted(set().union(*vectors))
    n = len(vectors)
    if not keys:
        return [[F(c == fc) for c in range(n)] for fc in range(n)]
    red, pivots = dense_rref([[v.get(k, F(0)) for v in vectors] for k in keys])
    return [[F(c == fc) if c not in pivots else -red[pivots.index(c)][fc] for c in range(n)]
            for fc in range(n) if fc not in pivots]


def test_certificate_paths_agree_with_dense_oracle(monkeypatch):
    """Every solve and kernel the certificate builders ask for, checked against
    textbook Gauss-Jordan on the same system, entry for entry."""
    calls = {"omega": 0, "nullspace": 0}

    def checked(where, solve, oracle):
        def wrapped(*args):
            answer = solve(*args)
            assert answer == oracle(*args)
            calls[where] += 1
            return answer
        return wrapped

    monkeypatch.setattr(omega, "combination", checked("omega", omega.combination, dense_solve))
    nullspace = checked("nullspace", exact_nullspace, dense_kernel)

    M = OmegaModule(OmegaParams(F(1, 2), F(3), F(0), F(2), (F(1), F(0), F(1))))
    f = M.ring.from_terms([((2, 1), F(3)), ((1, 2), F(-1, 2)), ((0, 0), F(1))])
    assert omega_reduce_to_one(M, f).replay(M, f) == M.one()
    # The vectors L0^i d0^j t^k of the free-rank oracle, plus one repeat.
    columns = []
    for k in range(3):
        for i in range(2):
            for j in range(3):
                vec = M.ring.monomial({"s": i, "t": k})
                for _ in range(j):
                    vec = M.act(gen("d", 0), vec)
                columns.append(vec.terms)
    assert nullspace(columns) == []
    assert len(nullspace(columns + columns[-1:])) == 1
    T = TensorModule([OmegaParams(F(1, 2), F(3), F(0), F(2), (F(1), F(0), F(1))),
                      OmegaParams(F(1), F(1), F(1), F(3), (F(2),))])
    tensor_generate(T, (1, 1, 2, 0))
    tensor_reduce_to_bottom(T, T.ring.monomial({"s1": 1, "t1": 1, "t2": 2}))
    assert all(calls.values()), calls


def test_exact_det_matches_naive():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        assert exact_det(m) == naive_det(m)
    # each row over its own denominator, zeros included
    for _ in range(60):
        n = rng.randint(1, 6)
        dens = [rng.choice([1, 2, 3, 4, 5, 6, 7, 9, 12]) for _ in range(n)]
        m = [[F(rng.randint(-6, 6), d * rng.randint(1, 2)) if rng.random() < 0.8 else F(0)
              for _ in range(n)] for d in dens]
        assert exact_det(m) == naive_det(m)
    assert naive_det([[F(1), F(1)], [F(2), F(3)]]) == 1
    assert naive_det([[F(1) if i == j else F(0) for j in range(4)] for i in range(4)]) == 1
    assert naive_det([[F(1), F(2)], [F(1), F(2)]]) == 0


def test_exact_det_on_int_rows_equals_fraction_rows_and_naive():
    rng = random.Random(11)
    for n, density, _ in itertools.product(range(1, 8), (0.3, 0.6, 0.8), range(4)):
        m = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        det = exact_det(m)
        assert det == exact_det([[F(x) for x in row] for row in m]) == naive_det(m)
        assert isinstance(det, F)
    rows, _ = tensor.det_rows(tensor.DetSpec((F(1, 2), F(-2, 3), F(3)), (2, 2, 2), 1))
    assert exact_det(rows) == naive_det(rows)
    # The same integer matrix with bool entries and with mixed int/Fraction rows.
    assert exact_det([[True, 2], [3, False]]) == -6
    assert exact_det([[1, F(1, 2)], [F(2, 3), 4]]) == F(11, 3)


def test_exact_det_on_mixed_int_bool_and_fraction_rows_equals_naive():
    """Int rows are read as they are; bool and Fraction rows are cleared to ints."""
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 6)
        m = []
        for _ in range(n):
            kind = rng.choice(("int", "bool", "fraction", "mixed"))
            if kind == "int":
                row = [rng.randint(-6, 6) for _ in range(n)]
            elif kind == "bool":
                row = [rng.random() < 0.5 for _ in range(n)]
            elif kind == "fraction":
                row = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
            else:
                row = [rng.choice([rng.randint(-3, 3), rng.random() < 0.5,
                                   F(rng.randint(-3, 3), rng.randint(1, 4))]) for _ in range(n)]
            m.append(row)
        assert exact_det(m) == naive_det(m)
    assert exact_det([[True, False], [2, 3]]) == naive_det([[True, False], [2, 3]]) == 3
    assert exact_det([[F(1, 2), True], [4, 2]]) == -3


def test_exact_det_rescales_a_row_with_a_zero_under_the_pivot():
    """Row 1 has 0 under the first pivot 2 and above a nonzero entry.

    An elimination that skipped such a row would leave it one step behind:
    under Bareiss the next exact division would give 5 // 2 = 2 instead of
    5.  The adjacent-row elimination swaps it with the row below.
    """
    m = [[2, 1, 0], [0, 3, 1], [1, 1, 1]]
    assert exact_det(m) == naive_det(m) == 5
    # The same zero above a nonzero entry, under a first pivot 1.
    m = [[1, 2, 3], [0, 1, 4], [5, 6, 0]]
    assert exact_det(m) == naive_det(m) == 1


def test_exact_det_leaves_its_input_rows_unchanged():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = [[rng.choice([0, rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 4))])
              for _ in range(n)] for _ in range(n)]
        rows = [list(row) for row in m]
        ids = [id(row) for row in m]
        exact_det(m)
        assert m == rows and [id(row) for row in m] == ids
    # A zero pivot forces a row swap; the caller's row order stays as it was.
    m = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
    assert exact_det(m) == -3 and m == [[0, 1, 2], [3, 4, 5], [6, 7, 9]]


def test_exact_det_rejects_non_rational_entries():
    for bad in (1.5, "1/2", None):
        with pytest.raises(TypeError):
            exact_det([[1, 2], [bad, 3]])
        with pytest.raises(TypeError):
            exact_det([[bad]])


def test_exact_det_scales_a_step_whose_upper_entry_does_not_divide_the_lower():
    """No entry of the first column divides the one below it: each of its steps has a != 1."""
    rng = random.Random(23)
    m = [[2, 1, 1, 4], [3, 1, 2, -1], [5, 7, 1, 2], [7, -2, 3, 3]]
    assert all(m[i][0] % m[i - 1][0] for i in range(1, 4))
    assert exact_det(m) == naive_det(m) != 0
    for _ in range(60):
        n = rng.randint(3, 8)
        m = [[rng.randint(2, 40) for _ in range(n)] for _ in range(n)]
        assert exact_det(m) == naive_det(m)


def test_exact_det_swaps_a_zero_upper_entry_with_the_nonzero_one_below():
    m = [[1, 2, 3, 4], [0, 1, 5, 2], [7, 3, 1, 1], [2, 0, 3, 5]]
    assert exact_det(m) == naive_det(m) != 0
    # Zeros above zeros above a nonzero entry: the nonzero row rises to the top.
    m = [[0, 1, 2, 3], [0, 4, 1, 1], [0, 2, 7, 1], [5, 1, 1, 2]]
    assert exact_det(m) == naive_det(m) != 0
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(3, 7)
        m = [[rng.randint(-4, 4) if rng.random() < 0.4 else 0 for _ in range(n)]
             for _ in range(n)]
        assert exact_det(m) == naive_det(m)


def test_exact_det_on_negative_entries():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 7)
        m = [[rng.choice([rng.randint(-30, -1), F(rng.randint(-9, -1), rng.randint(1, 5))])
              for _ in range(n)] for _ in range(n)]
        assert exact_det(m) == naive_det(m)
    assert exact_det([[-2, -3, -1], [-4, -1, -5], [-6, -7, -2]]) == naive_det(
        [[-2, -3, -1], [-4, -1, -5], [-6, -7, -2]])


def test_exact_det_of_an_all_zero_column_is_zero():
    for j in range(4):
        m = [[0 if col == j else 3 * row + col + row * col for col in range(4)]
             for row in range(4)]
        assert exact_det(m) == naive_det(m) == 0
    # A column that is zero only once the column before it is cleared.
    m = [[1, 2, 3], [2, 4, 7], [3, 6, 1]]
    assert exact_det(m) == naive_det(m) == 0


def test_exact_det_of_det_rows_of_every_profile_up_to_eight_rows():
    """Every size profile (ordered) with N <= 8 at r = 0, 1, 2, on rational alphas."""
    alphas = (F(1, 2), F(-2, 3), F(3), F(-5, 4), F(2), F(3, 7), F(-1), F(7, 5))
    checked = 0
    for total in range(1, 9):
        for cuts in itertools.product((False, True), repeat=total - 1):
            sizes, size = [], 1
            for cut in cuts:
                if cut:
                    sizes.append(size)
                    size = 1
                else:
                    size += 1
            sizes = (*sizes, size)
            for r in range(3):
                spec = tensor.DetSpec(alphas[:len(sizes)], sizes, r)
                rows, _ = tensor.det_rows(spec)
                assert exact_det(rows) == naive_det(rows) != 0, (sizes, r)
                assert tensor.det_r(spec).ok
                checked += 1
    assert checked == 3 * (2**8 - 1)


def test_det_r_on_a_forty_row_block_within_a_second():
    spec = tensor.DetSpec((F(1, 2), F(-2, 3), F(3), F(-5, 4), F(7)), (8,) * 5, 1)
    start = time.perf_counter()
    assert tensor.det_r(spec).ok
    assert time.perf_counter() - start < 1.0


def test_combination_and_span_basis():
    vs = [{(0,): F(1), (1,): F(2)}, {(1,): F(1)}]
    target = {(0,): F(2), (1,): F(1)}
    combo = combination(vs, target)
    assert combo == [F(2), F(-3)]
    sb = SpanBasis()
    assert sb.add(vs[0])
    assert sb.add(vs[1])
    assert not sb.add(target)
    assert sb.dim == 2
    assert SpanBasis().dim == 0
    assert sb.contains({(0,): F(5)})
    assert not sb.contains({(2,): F(1)})


# -- agreement with the Fraction eliminator ------------------------------------


def _random_value(rng):
    """A nonzero int, or a Fraction whose numerator and denominator reach 10^15."""
    if rng.random() < 0.3:
        return rng.choice([-1, 1]) * rng.randint(1, 10**6)
    return F(rng.randint(-10**15, 10**15) or 1, rng.randint(1, 10**15))


def _random_batch(rng):
    """Sparse vectors over tuple keys, about a third of them combinations of earlier ones.

    Values are ints or Fractions, some vectors are all ints, and an explicit zero
    entry now and then must read as absent.
    """
    keys = [(i, j) for i in range(3) for j in range(-2, 3)]
    vectors = []
    for _ in range(rng.randint(1, 12)):
        if vectors and rng.random() < 0.35:
            v: dict = {}
            for w in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
                c = _random_value(rng)
                for k, x in w.items():
                    v[k] = v.get(k, 0) + c * x
        else:
            v = {k: _random_value(rng) for k in rng.sample(keys, rng.randint(1, 6))}
            if rng.random() < 0.3:
                v = {k: int(x * 7) or 1 for k, x in v.items()}
        if rng.random() < 0.2:
            v[rng.choice(keys)] = 0
        vectors.append(v)
    return vectors


def _disagreements(vectors, rng) -> list[str]:
    """Where linalg's SpanBasis, combination and exact_nullspace differ from the oracles."""
    out = []
    new, old = linalg.SpanBasis(), FractionSpanBasis()
    for i, v in enumerate(vectors):
        if new.add(v) != old.add(v) or new.dim != old.dim:
            out.append(f"add {i}")
    in_span = {}
    for w in vectors[:3]:
        c = _random_value(rng)
        for k, x in w.items():
            in_span[k] = in_span.get(k, 0) + c * x
    probes = [in_span, {(0, 0): F(1)}, {(2, 2): F(-3, 7), (1, -1): 5}, *vectors]
    if [new.contains(p) for p in probes] != [old.contains(p) for p in probes]:
        out.append("contains")
    got = span_vectors(new)
    if got != old.vectors() or any(type(c) is not F for row in got for c in row.values()):
        out.append("vectors")
    for target in probes[:3]:
        x = combination(vectors, target)
        if x != fraction_combination(vectors, target) or (x and any(type(c) is not F for c in x)):
            out.append(f"combination {target}")
    if exact_nullspace(vectors) != fraction_nullspace(vectors):
        out.append("exact_nullspace")
    return out


def test_integer_span_basis_agrees_with_the_fraction_eliminator():
    """Seeded sparse batches with large denominators, negative pivots, dependent sets and
    int inputs: dim, contains, vectors, combination and exact_nullspace all agree."""
    rng = random.Random(41)
    for _ in range(150):
        vectors = _random_batch(rng)
        assert _disagreements(vectors, rng) == [], vectors


def test_integer_span_rows_are_primitive_with_the_pivot_numerator_as_denominator():
    rng = random.Random(7)
    for _ in range(40):
        basis = SpanBasis()
        for v in _random_batch(rng):
            basis.add(v)
        for pk, row in basis._rows.items():
            assert pk == max(row) and row[pk] > 0
            assert all(type(c) is int for c in row.values()) and gcd(*row.values()) == 1
            assert not any(k in basis._rows for k in row if k != pk)


def test_a_basis_that_skips_back_substitution_fails_the_agreement(monkeypatch):
    """Without back-substitution the rows stop being reduced, and the agreement sees it."""

    class NoBackSubstitution(SpanBasis):
        def add(self, vec):
            v = self._reduce(vec)
            if not v:
                return False
            pk = max(v)
            g = gcd(*v.values()) * (1 if v[pk] > 0 else -1)
            self._rows[pk] = {k: c // g for k, c in v.items()}
            return True

    monkeypatch.setattr(linalg, "SpanBasis", NoBackSubstitution)
    rng = random.Random(41)
    failed = sum(1 for _ in range(40) if _disagreements(_random_batch(rng), rng))
    assert failed > 0
