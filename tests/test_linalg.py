import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from painleve_hh import (ContractViolation, DenseMatrix, Scalar, as_scalar,
                         determinant, nth_root, solve_linear)


def matmul_vector(A: DenseMatrix, x) -> list:
    """A x by an entry-by-entry fold: the reference the residuals use."""
    if len(x) != A.cols:
        raise ContractViolation("vector length does not match matrix columns")
    out = []
    for i in range(A.rows):
        acc = Scalar.exact(0)
        for j in range(A.cols):
            acc = acc + A[i, j] * x[j]
        out.append(acc)
    return out


def residual_inf_norm(A: DenseMatrix, x, b):
    """max_i |(A x - b)_i| as an mpf."""
    ax = matmul_vector(A, x)
    return max((ax[i] - as_scalar(b[i])).mag() for i in range(A.rows))


def M(rows):
    return DenseMatrix.from_rows([[Scalar.exact(e) if isinstance(e, (int, Fraction))
                                   else e for e in r] for r in rows])


def test_unique_diagonal():
    sol = solve_linear(M([[2, 0], [0, 3]]), [Scalar.exact(4), Scalar.exact(9)])
    assert sol.kind == "unique"
    assert [v.fraction() for v in sol.solution] == [2, 3]


def test_rank_deficient_consistent():
    sol = solve_linear(M([[0, 0], [0, 1]]), [Scalar.exact(0), Scalar.exact(5)])
    assert sol.kind == "parametrized"
    assert sol.nullspace_dim == 1
    assert [v.fraction() for v in sol.solution] == [0, 5]


def test_inconsistent():
    sol = solve_linear(M([[0]]), [Scalar.exact(1)])
    assert sol.kind == "inconsistent"


def test_dimension_mismatch():
    with pytest.raises(ContractViolation):
        solve_linear(M([[1, 2]]), [Scalar.exact(1), Scalar.exact(2)])
    with pytest.raises(ContractViolation):
        DenseMatrix.from_rows([])
    with pytest.raises(ContractViolation, match="ragged rows"):
        DenseMatrix.from_rows([[1, 2], [3]])
    for rows, cols, entries in ((0, 1, []), (1, 0, []), (2, 2, [1, 2, 3])):
        with pytest.raises(ContractViolation):
            DenseMatrix(rows, cols, entries)


def test_wide_rounded_system_is_parametrized():
    # every row pivots before the last column
    sol = solve_linear(M([[Scalar.from_real("0.5"), Scalar.from_real("1.5")]]),
                       [Scalar.from_real("1")])
    assert (sol.kind, sol.nullspace_dim) == ("parametrized", 1)
    v = sol.nullspace[0]
    assert (v[0] * Scalar.from_real("0.5")
            + v[1] * Scalar.from_real("1.5")).mag() < mpmath.mpf(2) ** -200


def test_determinant_examples():
    ident = M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert determinant(ident).fraction() == 1
    # the x-equation step matrix at k=2 is singular for any c1
    for c1 in (Scalar.exact(3), Scalar.from_real("1.486508893753401")):
        step = DenseMatrix.from_rows([
            [Scalar.exact(0), 2 * c1],
            [Scalar.exact(0), Scalar.exact(2 * 1 - 12)],
        ])
        d = determinant(step)
        assert d.is_zero() or d.mag() < mpmath.mpf(2) ** (-120)


def test_determinant_c43_step_at_minus_one():
    s6 = nth_root(Scalar.exact(6), 2, 0)
    u = 2  # (k-1)*k at k = -1
    step = DenseMatrix.from_rows([
        [Scalar.exact(u - 6), 2 * s6],
        [2 * s6, Scalar.exact(u - 8)],
    ])
    assert determinant(step).mag() < mpmath.mpf(2) ** (-120)


def test_determinant_requires_square():
    with pytest.raises(ContractViolation):
        determinant(M([[1, 2]]))


def _random_exact_matrix(rng, n):
    return M([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
               for _ in range(n)] for _ in range(n)])


def test_determinant_multiplicative_on_random_4x4():
    rng = random.Random(42)
    for _ in range(5):
        A = _random_exact_matrix(rng, 4)
        B = _random_exact_matrix(rng, 4)
        prod_rows = []
        for i in range(4):
            prod_rows.append([
                sum((A[i, k] * B[k, j] for k in range(4)), Scalar.exact(0))
                for j in range(4)
            ])
        AB = DenseMatrix.from_rows(prod_rows)
        assert determinant(AB).fraction() == \
            (determinant(A) * determinant(B)).fraction()


def test_determinant_multiplicative_float_tolerance():
    rng = random.Random(3)
    s2 = nth_root(Scalar.exact(2), 2, 0)
    rows_a = [[s2 * Scalar.exact(rng.randint(-5, 5)) for _ in range(4)]
              for _ in range(4)]
    rows_b = [[s2 * Scalar.exact(rng.randint(-5, 5)) for _ in range(4)]
              for _ in range(4)]
    A, B = DenseMatrix.from_rows(rows_a), DenseMatrix.from_rows(rows_b)
    AB = DenseMatrix.from_rows([
        [sum((A[i, k] * B[k, j] for k in range(4)), Scalar.exact(0))
         for j in range(4)] for i in range(4)
    ])
    lhs = determinant(AB)
    rhs = determinant(A) * determinant(B)
    scale = max(lhs.mag(), rhs.mag(), mpmath.mpf(1))
    assert (lhs - rhs).mag() <= mpmath.mpf(2) ** (-124) * scale


def test_residual_bound_unique_float():
    rng = random.Random(11)
    s3 = nth_root(Scalar.exact(3), 2, 0)
    A = DenseMatrix.from_rows([
        [s3 * Scalar.exact(rng.randint(1, 6)) + Scalar.exact(rng.randint(-3, 3))
         for _ in range(3)] for _ in range(3)
    ])
    b = [Scalar.exact(rng.randint(-5, 5)) for _ in range(3)]
    sol = solve_linear(A, b)
    assert sol.kind == "unique"
    bnorm = max(v.mag() for v in b)
    assert residual_inf_norm(A, sol.solution, b) <= \
        mpmath.mpf(2) ** (-128) * (1 + bnorm)


def test_parametrized_family_satisfies_system():
    # singular but consistent float system
    s2 = nth_root(Scalar.exact(2), 2, 0)
    row = [s2, 2 * s2, -s2]
    A = DenseMatrix.from_rows([row, [2 * v for v in row], [0 * v for v in row]])
    b = [s2 * 3, s2 * 6, Scalar.exact(0)]
    sol = solve_linear(A, b)
    assert sol.kind == "parametrized"
    assert sol.nullspace_dim == 2
    rng = random.Random(5)
    bnorm = max(v.mag() for v in b)
    for _ in range(4):
        x = list(sol.solution)
        for vec in sol.nullspace:
            t = Scalar.exact(rng.randint(-7, 7), rng.randint(1, 4))
            x = [xi + t * vi for xi, vi in zip(x, vec)]
        assert residual_inf_norm(A, x, b) <= \
            mpmath.mpf(2) ** (-120) * (1 + bnorm)


def test_tall_homogeneous_system_nullspace():
    # overdetermined homogeneous system with a one-dimensional nullspace
    rows = [[Scalar.exact(i), Scalar.exact(2 * i)] for i in range(1, 6)]
    sol = solve_linear(DenseMatrix.from_rows(rows), [Scalar.exact(0)] * 5)
    assert sol.kind == "parametrized"
    assert sol.nullspace_dim == 1
    v = sol.nullspace[0]
    assert (v[0] + 2 * v[1]).fraction() == 0
    assert not (v[0].is_zero() and v[1].is_zero())


def test_matmul_vector_shape_check():
    with pytest.raises(ContractViolation):
        matmul_vector(M([[1, 2]]), [Scalar.exact(1)])


# -- one elimination routine: exact invariance and exact/big-float agreement ---

entries = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                    st.sampled_from([1, 2, 3]))


@st.composite
def exact_systems(draw, max_rows=4, max_cols=4):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    a = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(entries, min_size=rows, max_size=rows))
    return a, b


def _fractions(vec):
    return None if vec is None else [v.fraction() for v in vec]


@given(exact_systems(), st.randoms(use_true_random=False))
def test_exact_solve_is_invariant_under_row_permutation(system, rnd):
    a, b = system
    order = list(range(len(a)))
    rnd.shuffle(order)
    base = solve_linear(M(a), [Scalar.exact(v) for v in b])
    moved = solve_linear(M([a[i] for i in order]),
                         [Scalar.exact(b[i]) for i in order])
    assert (moved.kind, moved.rank) == (base.kind, base.rank)
    assert _fractions(moved.solution) == _fractions(base.solution)
    assert [_fractions(v) for v in moved.nullspace] == \
        [_fractions(v) for v in base.nullspace]


def _rounded(q, bits):
    # the same rational value rounded onto the big-float path
    with mpmath.workprec(bits):
        return Scalar.from_mpc(mpmath.mpf(q.numerator) / q.denominator, bits)


@st.composite
def square_systems(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    a = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    return a, draw(st.lists(entries, min_size=n, max_size=n))


@given(square_systems(), st.sampled_from([64, 256]))
def test_exact_and_bigfloat_paths_agree(system, bits):
    # entries with denominator 3 are rounded on the big-float path; at
    # most 3x3 with |entries| <= 9 and |det| >= 1/27 keeps the condition
    # number below 2**19
    a, b = system
    tol = mpmath.mpf(2) ** -(bits - 24)
    exact_det = determinant(M(a))
    float_det = determinant(M([[_rounded(v, bits) for v in r] for r in a]))
    assert exact_det.is_exact and not float_det.is_exact
    assert (float_det - exact_det).mag() <= tol * max(1, exact_det.mag())
    if exact_det.is_zero():
        return
    exact_sol = solve_linear(M(a), [Scalar.exact(v) for v in b])
    float_sol = solve_linear(M([[_rounded(v, bits) for v in r] for r in a]),
                             [_rounded(v, bits) for v in b])
    assert exact_sol.kind == float_sol.kind == "unique"
    scale = max([1] + [v.mag() for v in exact_sol.solution])
    for x, y in zip(exact_sol.solution, float_sol.solution):
        assert (x - y).mag() <= tol * scale


@pytest.mark.parametrize("rows", [
    [[Fraction(1, 10 ** 50)]],
    [[Fraction(10 ** 50), 0], [0, 1]],
    [[1, Fraction(1, 10 ** 30)], [Fraction(1, 10 ** 30), Fraction(1, 10 ** 20)]],
])
@pytest.mark.parametrize("bits", [64, 256])
def test_bigfloat_determinant_of_badly_scaled_nonsingular_matrix(rows, bits):
    # a pivot far below 2**-(bits/2) * max|entry| is still a pivot: the
    # determinant makes no rank decision
    exact = determinant(M(rows))
    rounded = determinant(M([[_rounded(Fraction(v), bits) for v in r]
                             for r in rows]))
    assert not rounded.is_zero()
    assert (rounded - exact).mag() <= mpmath.mpf(2) ** -(bits - 8) * exact.mag()


# -- exact systems on ints against a plain Fraction Gauss-Jordan --------------

small_rationals = st.builds(Fraction, st.integers(min_value=-30, max_value=30),
                            st.integers(min_value=1, max_value=12))
# entries near 2**200 and 2**-200 next to small ones
rationals = st.one_of(small_rationals, small_rationals, st.builds(
    lambda q, e: q * Fraction(2) ** e, small_rationals,
    st.sampled_from([-201, -200, 199, 200])))
# zeros at pivot positions make the elimination swap rows
sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def rational_matrices(draw, nrows, ncols):
    """nrows x ncols Fractions of rank at most a drawn r: r drawn rows and
    small integer mixes of them, in a drawn order, some rows then zeroed."""
    full = min(nrows, ncols)
    r = draw(st.one_of(st.just(full), st.integers(min_value=0, max_value=full)))
    basis = draw(st.lists(st.lists(sparse_rationals, min_size=ncols,
                                   max_size=ncols), min_size=r, max_size=r))
    mixes = draw(st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                                   min_size=r, max_size=r),
                          min_size=nrows - r, max_size=nrows - r))
    rows = basis + [[sum((m * row[j] for m, row in zip(mix, basis)), Fraction(0))
                     for j in range(ncols)] for mix in mixes]
    rows = draw(st.permutations(rows))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=nrows - 1),
                             max_size=nrows // 2))
    return [[Fraction(0)] * ncols if i in zero_rows else row
            for i, row in enumerate(rows)]


@st.composite
def rational_systems(draw):
    """Tall, wide and square systems, often rank deficient; b lies in the
    image of A or is drawn freely (then often inconsistent)."""
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=7))
    a = draw(rational_matrices(nrows, ncols))
    if draw(st.booleans()):
        x = draw(st.lists(rationals, min_size=ncols, max_size=ncols))
        b = [sum((u * v for u, v in zip(row, x)), Fraction(0)) for row in a]
    else:
        b = draw(st.lists(rationals, min_size=nrows, max_size=nrows))
    return a, b


def _fraction_gauss_jordan(a, b):
    """(kind, rank, particular solution, nullspace basis) of a x = b by
    Gauss-Jordan on Fractions: free unknowns 0 in the particular solution,
    one basis vector per free column, 1 there."""
    ncols = len(a[0])
    rows = [list(r) + [v] for r, v in zip(a, b)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    rank = len(pivots)
    if any(row[-1] != 0 for row in rows[rank:]):
        return "inconsistent", rank, None, []
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][fc]
        basis.append(v)
    return "parametrized" if basis else "unique", rank, x, basis


def _times(a, x):
    return [sum((u * v for u, v in zip(row, x)), Fraction(0)) for row in a]


@given(rational_systems())
def test_exact_solve_matches_fraction_gauss_jordan(system):
    a, b = system
    sol = solve_linear(M(a), [Scalar.exact(v) for v in b])
    kind, rank, x, basis = _fraction_gauss_jordan(a, b)
    assert (sol.kind, sol.rank) == (kind, rank)
    assert _fractions(sol.solution) == x
    assert [_fractions(v) for v in sol.nullspace] == basis
    if kind != "inconsistent":
        assert all(v.is_exact for v in sol.solution)
        assert _times(a, _fractions(sol.solution)) == b
        for v in sol.nullspace:
            assert _times(a, _fractions(v)) == [0] * len(a)


def _leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(a[i][perm[i]] for i in range(n))
    return total


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: rational_matrices(n, n)))
def test_exact_determinant_matches_leibniz(a):
    det = determinant(M(a))
    assert det.is_exact
    assert det.fraction() == _leibniz(a)
