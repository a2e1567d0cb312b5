import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import hermite_normal_form
from sympy.matrices.normalforms import smith_normal_form as smith_normal_form_over_zz

from toricsym.intlin import (
    FGAbelianGroup,
    IntMatrix,
    _det,
    _reduce_rows,
    kernel_basis,
    smith_normal_form,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


small_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
).map(mat)

square_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
).map(mat)


@st.composite
def square_matrices_of_any_rank(draw):
    """n x n products L R of n x r and r x n matrices, n <= 8: rank at most r.
    Column j is sometimes set to k times column i, so that a dependent column
    can come before the last one."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, n))
    entries = st.integers(-3, 3)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    rows = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.integers(-2, 2))
        for row in rows:
            row[j] = k * row[i]
    return mat(rows)


@st.composite
def matrices_of_any_rank(draw):
    """r x c products L R of r x k and k x c matrices, 0 <= r <= 7, 1 <= c
    <= 7, k <= min(r, c): rank at most k.  L's entries reach 10^6 half the
    time, so that elimination meets large entries."""
    r, c = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(0, min(r, c)))
    bound = draw(st.sampled_from((3, 10**6)))
    left = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=k, max_size=k), min_size=r, max_size=r))
    right = draw(st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=k, max_size=k))
    return [[sum(left[i][q] * right[q][j] for q in range(k)) for j in range(c)] for i in range(r)]


@st.composite
def bareiss_cases(draw):
    """n x n rows, 0 <= n <= 8, with entries up to 10^12 in absolute value
    (n = 1 and n >= 5 go through the elimination, n = 2..4 through the closed
    forms): drawn freely, with leading zeros in each row (so that pivots are zero
    and rows must be swapped, or a column has no pivot at all), or of rank
    n - 1 or less (one row a combination of the others)."""
    n = draw(st.integers(0, 8))
    entries = st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["free", "zero-pivots", "rank-deficient"]))
    if kind == "zero-pivots":
        for row in rows:
            zeros = draw(st.integers(0, n))
            row[:zeros] = [0] * zeros
    elif kind == "rank-deficient" and n:
        j = draw(st.integers(0, n - 1))
        c = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        rows[j] = [sum(c[i] * rows[i][col] for i in range(n) if i != j) for col in range(n)]
    return rows


@st.composite
def closed_form_cases(draw):
    """2 x 2, 3 x 3 and 4 x 4 rows of each rank r = 0..n: r rows with entries
    up to 10^12 in absolute value, and n - r zero rows or multiples (-3..3)
    of them; or for r = 1 an outer product u v^T of entries up to 10^6.  The
    rows are shuffled, and the matrix transposed half the time."""
    n = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.integers(0, n))
    if r == 1 and draw(st.booleans()):
        factor = st.lists(st.integers(-(10**6), 10**6).filter(bool), min_size=n, max_size=n)
        u, v = draw(factor), draw(factor)
        rows = [[a * b for b in v] for a in u]
    else:
        row = st.lists(st.integers(-(10**12), 10**12), min_size=n, max_size=n)
        rows = [draw(row) for _ in range(r)]
        for _ in range(n - r):
            k = draw(st.integers(-3, 3)) if r else 0
            rows.append([k * x for x in rows[draw(st.integers(0, r - 1))]] if k else [0] * n)
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    assume(Matrix(rows).rank() == r)
    return rows


class TestBareissDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(bareiss_cases())
    def test_det_agrees_with_sympy_and_gauss_jordan(self, rows):
        n = len(rows)
        frozen = [list(row) for row in rows]
        det = _det(rows)
        assert rows == frozen
        assert type(det) is int
        assert det == Matrix(n, n, [x for row in rows for x in row]).det()
        assert det == mat(rows).det() == mat(rows).det_adjugate()[0]

    def test_draws_reach_the_elimination(self):
        # The closed forms take n = 2..4, so n >= 5 must stay among the draws.
        assert len(find(bareiss_cases(), lambda rows: len(rows) >= 5)) == 5

    @pytest.mark.parametrize(
        "rows, det",
        [
            ([], 1),
            ([[0]], 0),
            ([[0, 1], [1, 0]], -1),
            ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
            ([[0, 2, 1], [0, 3, 5], [4, 1, 1]], 28),
            ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 0),
            ([[1, 2, 3], [0, 0, 5], [0, 0, 7]], 0),
            ([[10**12, 1], [1, 10**12]], 10**24 - 1),
            ([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], 1),
            ([[2, 0, 0, 0], [0, 0, 3, 0], [0, 1, 0, 0], [0, 0, 0, 5]], -30),
            ([[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]], 1),
            ([[0, 1, 2, 3, 4], [0, 2, 4, 6, 8], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]], 0),
        ],
        ids=[
            "empty", "zero", "swap", "anti-diagonal", "swap-then-pivot", "dependent-rows", "no-pivot", "large",
            "anti-diagonal-4", "permuted-diagonal-4", "anti-diagonal-5", "dependent-rows-5",
        ],
    )
    def test_small_cases(self, rows, det):
        assert _det(rows) == det == _det(tuple(map(tuple, rows)))


class TestClosedForms:
    @settings(max_examples=600, deadline=None)
    @given(closed_form_cases())
    def test_det_and_adjugate_agree_with_sympy(self, rows):
        n = len(rows)
        oracle = DomainMatrix.from_Matrix(Matrix(rows)).convert_to(ZZ)
        det, adjugate = mat(rows).det_adjugate()
        assert type(det) is type(_det(rows)) is int
        assert all(type(x) is int for row in adjugate.entries for x in row)
        assert _det(rows) == det == oracle.det()
        assert Matrix(adjugate.entries) == oracle.adjugate().to_Matrix()
        scalar = IntMatrix.from_rows([[det * (i == j) for j in range(n)] for i in range(n)])
        assert mat(rows) @ adjugate == scalar == adjugate @ mat(rows)
        # rank adj A is n at full rank, 1 at rank n - 1 and 0 below.
        rank = Matrix(rows).rank()
        assert adjugate.rank() == (n if rank == n else int(rank == n - 1))


class TestSmithNormalForm:
    def test_identity(self):
        result = smith_normal_form(IntMatrix.identity(2))
        assert result.s == IntMatrix.identity(2)
        assert result.u_inv == IntMatrix.identity(2)
        assert result.v_inv == IntMatrix.identity(2)

    def test_hand_computed_2x2(self):
        # det = -3, entry gcd = 1
        result = smith_normal_form(mat([[3, 2], [3, 1]]))
        assert result.s.entries == ((1, 0), (0, 3))

    def test_gcd_and_determinant_pin_the_diagonal(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        result = smith_normal_form(mat([[2, 4], [6, 8]]))
        assert result.s.entries == ((2, 0), (0, 4))

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_decomposition_properties(self, a):
        result = smith_normal_form(a)
        assert (result.u_inv @ a @ result.v_inv) == result.s
        assert abs(result.u_inv.det()) == 1
        assert abs(result.v_inv.det()) == 1
        diag = result.diagonal
        assert all(d >= 0 for d in diag)
        for prev, nxt in zip(diag, diag[1:]):
            if nxt != 0:
                assert prev != 0 and nxt % prev == 0
        # off-diagonal entries vanish
        for i, row in enumerate(result.s.entries):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_invariant_factors_agree_with_sympy(self, a):
        sympy_snf = smith_normal_form_over_zz(Matrix(a.entries), domain=ZZ)
        expected = [abs(sympy_snf[i, i]) for i in range(min(a.rows, a.cols))]
        assert smith_normal_form(a).invariant_factors == tuple(d for d in expected if d)


class TestKernelBasis:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(IntMatrix.identity(3)) == ()

    def test_triangle_relation(self):
        rays = IntMatrix.from_columns([(1, 0), (0, 1), (-1, -1)])
        assert kernel_basis(rays) == ((1, 1, 1),)

    def test_weighted_space_relation(self):
        rays = IntMatrix.from_columns(
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, -2), (0, 0, 0, 1)]
        )
        assert kernel_basis(rays) == ((1, 1, 1, 1, 2),)

    @settings(max_examples=150, deadline=None)
    @given(small_matrices)
    def test_rank_nullity_and_saturation(self, a):
        basis = kernel_basis(a)
        assert a.rank() + len(basis) == a.cols
        for v in basis:
            assert a.apply(v) == (0,) * a.rows
            assert v[next(i for i, x in enumerate(v) if x)] > 0
        if basis:
            factors = smith_normal_form(IntMatrix.from_rows(basis)).invariant_factors
            assert all(f == 1 for f in factors)


def test_fg_group_rejects_broken_invariants():
    with pytest.raises(ValueError):
        FGAbelianGroup(free_rank=0, torsion=(1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(free_rank=0, torsion=(4, 6))


def test_fg_group_rendering():
    assert str(FGAbelianGroup(free_rank=0)) == "0"
    assert str(FGAbelianGroup(free_rank=4)) == "Z^4"
    assert str(FGAbelianGroup(free_rank=1, torsion=(2, 4))) == "Z + Z/2 + Z/4"


def test_entries_must_be_exact_integers():
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1.5, 0], [0, 1]])


class TestSympyOracles:
    @settings(max_examples=100, deadline=None)
    @given(square_matrices)
    def test_det(self, a):
        assert a.det() == Matrix(a.entries).det()

    @settings(max_examples=60, deadline=None)
    @given(square_matrices)
    def test_adjugate(self, a):
        adjugate = a.adjugate()
        assert Matrix(adjugate.entries) == Matrix(a.entries).adjugate()
        d = a.det()
        assert a @ adjugate == IntMatrix.from_rows([[d * (i == j) for j in range(a.rows)] for i in range(a.rows)])

    @settings(max_examples=150, deadline=None)
    @given(square_matrices_of_any_rank())
    def test_gauss_jordan_det_and_adjugate(self, a):
        det, adjugate = a.det_adjugate()
        # sympy's adjugate comes from the characteristic polynomial.
        oracle = DomainMatrix.from_Matrix(Matrix(a.entries)).convert_to(ZZ)
        assert det == oracle.det()
        assert Matrix(adjugate.entries) == oracle.adjugate().to_Matrix()
        scalar = IntMatrix.from_rows([[det * (i == j) for j in range(a.rows)] for i in range(a.rows)])
        assert a @ adjugate == scalar and adjugate @ a == scalar

    @settings(max_examples=300, deadline=None)
    @given(matrices_of_any_rank())
    def test_rank(self, rows):
        assert mat(rows).rank() == (Matrix(rows).rank() if rows else 0)

    @settings(max_examples=100, deadline=None)
    @given(small_matrices)
    def test_kernel_basis_spans_the_rational_nullspace_and_is_saturated(self, a):
        basis = kernel_basis(a)
        nullspace = Matrix(a.entries).nullspace()
        assert len(basis) == len(nullspace)
        if basis:
            rows = Matrix(basis)
            assert rows.rank() == len(basis)
            for v in nullspace:
                assert rows.col_join(v.T).rank() == len(basis)
            snf = smith_normal_form_over_zz(rows, domain=ZZ)
            assert all(abs(snf[i, i]) == 1 for i in range(len(basis)))


    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.integers(1, 6).flatmap(
                lambda c: st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r)
            )
        )
    )
    def test_row_reduction_is_the_hermite_normal_form(self, rows):
        reduced = _reduce_rows([tuple(row) for row in rows])
        if not any(map(any, rows)):
            assert reduced == ()
            return
        # Same lattice: the column-style HNF of the transposes is canonical.
        assert hermite_normal_form(Matrix(reduced).T) == hermite_normal_form(Matrix(rows).T)
        assert len(reduced) == Matrix(rows).rank()
        pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
        assert pivots == sorted(set(pivots))
        for i, j in enumerate(pivots):
            assert reduced[i][j] > 0
            assert all(0 <= reduced[k][j] < reduced[i][j] for k in range(i))


class TestBoundary:
    """Entries are checked where they enter; computed results are not re-checked."""

    @pytest.mark.parametrize("bad", [True, 1.0, Fraction(1, 2)], ids=["bool", "float", "Fraction"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda rows: IntMatrix(rows),
            IntMatrix.from_rows,
            lambda rows: IntMatrix.from_columns(zip(*rows)),
        ],
        ids=["init", "from_rows", "from_columns"],
    )
    def test_non_int_entries_are_refused(self, build, bad):
        with pytest.raises(TypeError):
            build(((1, bad), (0, 1)))

    def test_ragged_input_is_refused(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))
        with pytest.raises(ValueError):
            IntMatrix.from_rows([(1, 2), (3,)])
        with pytest.raises(ValueError):
            IntMatrix.from_columns([(1, 2), (3,)])

    @settings(max_examples=80, deadline=None)
    @given(small_matrices, small_matrices)
    def test_computed_results_equal_checked_ones(self, a, b):
        snf = smith_normal_form(a)
        results = [-a, a.transpose(), a @ a.transpose(), snf.s, snf.u_inv, snf.v_inv]
        if a.cols == b.rows:
            results.append(a @ b)
        if a.rows == a.cols:
            results.append(a.adjugate())
        for r in results:
            checked = IntMatrix(r.entries)
            assert r == checked and hash(r) == hash(checked)
            assert type(r.entries) is tuple
            assert all(type(row) is tuple and all(type(x) is int for x in row) for row in r.entries)

    def test_tracer_installs_and_uninstalls(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            from tracer import Tracer
        finally:
            sys.path.pop(0)
        originals = dict(vars(IntMatrix))
        tracer = Tracer()
        tracer.install()
        try:
            assert mat([[2, 1], [1, 1]]).det() == 1
            assert tracer.calls["intlin.det"] == 1
        finally:
            tracer.uninstall()
        assert dict(vars(IntMatrix)) == originals


class TestEdgeShapes:
    def test_zero_matrix_kernel_is_everything(self):
        basis = kernel_basis(mat([[0, 0, 0], [0, 0, 0]]))
        assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_zero_matrix_snf(self):
        zero = mat([[0, 0], [0, 0], [0, 0]])
        result = smith_normal_form(zero)
        assert result.s == zero
        assert (result.u_inv @ zero @ result.v_inv) == result.s
        assert abs(result.u_inv.det()) == 1
        assert abs(result.v_inv.det()) == 1

    def test_adjugate_identity(self):
        a = mat([[2, 1, 0], [1, 1, 3], [0, 5, 1]])
        assert (a @ a.adjugate()) == IntMatrix.from_rows(
            [[a.det() if i == j else 0 for j in range(3)] for i in range(3)]
        )

    def test_rank_of_dependent_rows(self):
        assert mat([[1, 2], [2, 4], [3, 6]]).rank() == 1


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_invariant_factors_agree_with_an_independent_oracle(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as oracle_snf

    ours = smith_normal_form(a).invariant_factors
    oracle = oracle_snf(sympy.Matrix([list(r) for r in a.entries]), domain=sympy.ZZ)
    diag = [abs(int(oracle[i, i])) for i in range(min(oracle.shape))]
    assert list(ours) == [d for d in diag if d != 0]


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_kernel_is_canonical_under_row_duplication(a):
    doubled = IntMatrix.from_rows(list(a.entries) + list(a.entries))
    assert kernel_basis(a) == kernel_basis(doubled)


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([-2, -1, 1, 2]))))
def test_kernel_is_canonical_under_row_operations(a, operations):
    rows = [list(row) for row in a.entries]
    for i, j, k in operations:
        i, j = i % a.rows, j % a.rows
        if i != j:
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    assert kernel_basis(a) == kernel_basis(mat(rows))
