"""Exact integer linear algebra.

Everything here works over plain Python ints (arbitrary precision); no
floating point is used anywhere.  The central routine is Smith normal form
with unimodular transforms, from which saturated integer kernels are
derived.  Ranks come from the Hermite reduction of the rows, det and adj
from elimination, except that 2x2 and 3x3 matrices (the cones of rank-2
and rank-3 fans) take cofactors.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import PreconditionError
from .record import Record

Vector = tuple[int, ...]


def _as_int(x: object) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"exact integer required, got {x!r}")
    return x


def gcd_vector(v: Sequence[int]) -> int:
    """gcd of the entries, 0 for the zero vector."""
    return math.gcd(*v)


def primitive_vector(v: Sequence[int]) -> Vector:
    """v divided by the gcd of its entries (zero vector is rejected)."""
    g = gcd_vector(v)
    if g == 0:
        raise PreconditionError("zero-vector", "zero vector has no primitive form")
    return tuple(x // g for x in v)


class IntMatrix(Record):
    """Immutable exact integer matrix, ``entries`` a tuple of row tuples.

    ``IntMatrix(...)``, ``from_rows`` and ``from_columns`` check entries (an
    int, not a bool; rectangular); results computed from them are not re-checked.
    """

    __slots__ = ("entries",)

    def __post_init__(self):
        rows = tuple(tuple(_as_int(x) for x in row) for row in self.entries)
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", rows)
        return matrix

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_columns(cls, cols: Iterable[Sequence[int]]) -> "IntMatrix":
        cols = [tuple(c) for c in cols]
        if not cols:
            return cls(())
        return cls(tuple(zip(*cols, strict=True)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.entries)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().entries
        return IntMatrix._of(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def apply(self, v: Sequence[int]) -> Vector:
        """Matrix-vector product."""
        if self.cols != len(v):
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(-x for x in row) for row in self.entries))

    def det(self) -> int:
        """Determinant (``_det``): 2x2 and 3x3 by cofactors, else by Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.entries)

    def rank(self) -> int:
        """Rank over the rationals: the number of rows ``_reduce_rows`` keeps."""
        return len(_reduce_rows(self.entries))

    def adjugate(self) -> "IntMatrix":
        """Adjugate: self @ adj = det * identity.  The library calls ``det_adjugate``;
        ``perfbench/tracer.py`` wraps this by name (``METHODS``), so it stays."""
        return self.det_adjugate()[1]

    def det_adjugate(self) -> tuple[int, "IntMatrix"]:
        """det and adjugate together (``_gauss_jordan``): 2x2 and 3x3 by cofactors, else one elimination."""
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        det, adjugate = _gauss_jordan(self.entries)
        return det, IntMatrix._of(adjugate)


def _det(rows: Iterable[Sequence[int]]) -> int:
    """det A from the rows of A, not modified: ad - bc, the first-row cofactor
    expansion for the 3x3 cones of rank-3 fans, else Bareiss elimination: step
    k sets each row r below the pivot to (p_k r - r[k] pivot row) / p_(k-1),
    exactly (Sylvester's identity), so det A = +-p_n; no pivot in a column gives 0."""
    m = list(rows)
    n = len(m)
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    break
            else:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        pivot = m[k]
        p = pivot[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        prev = p
    return sign * prev


def _gauss_jordan(a: Sequence[Sequence[int]]) -> tuple[int, tuple[Vector, ...]]:
    """det A and adj A: for the 2x2 and 3x3 cones of rank 2-3 fans the cofactor
    matrix, exact at any rank, and row 1 of A times its column 1.  Else by
    fraction-free Gauss-Jordan elimination of [A | I]: step k sets each other
    row r to (p_k r - r[k] pivot row) / p_(k-1) and drops column k, leaving
    [p_n I | adj A] up to the swaps' sign.  No pivot before the last step means
    rank < n - 1 and adj A = 0; p_n = 0 is kept (adj A is polynomial)."""
    n = len(a)
    if n == 2:
        (p, q), (r, s) = a
        return p * s - q * r, ((s, -q), (-r, p))
    if n == 3:
        (p, q, r), (s, t, u), (v, w, x) = a
        c0, c1, c2 = t * x - u * w, u * v - s * x, s * w - t * v
        adj = (c0, r * w - q * x, q * u - r * t), (c1, p * x - r * v, r * s - p * u), (c2, q * v - p * w, p * t - q * s)
        return p * c0 + q * c1 + r * c2, adj
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    order = list(range(n))  # order[k + c]: the column of A now at left position c
    sign, prev = 1, 1
    for k in range(n):
        if not rows[k][0]:
            i, c = next(((i, c) for c in range(n - k) for i in range(k, n) if rows[i][c]), (k, 0))
            if not rows[i][c] and k < n - 1:
                return 0, ((0,) * n,) * n
            if i != k:
                rows[k], rows[i] = rows[i], rows[k]
                sign = -sign
            if c:
                for row in rows:
                    row[0], row[c] = row[c], row[0]
                order[k], order[k + c] = order[k + c], order[k]
                sign = -sign
        pivot = rows[k]
        p = pivot.pop(0)
        for i in range(n):
            if i != k:
                f = rows[i].pop(0)
                if f:
                    rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot)]
                elif p != prev:
                    rows[i] = [p * x // prev for x in rows[i]]
        prev = p
    adj = (row if sign > 0 else [-x for x in row] for _, row in sorted(zip(order, rows)))
    return sign * prev, tuple(map(tuple, adj))


class SNFResult(Record):
    """Smith decomposition ``u_inv @ A @ v_inv = s`` with unimodular
    ``u_inv`` and ``v_inv``, tracked during the elimination so that
    kernels and cokernels come for free.
    """

    __slots__ = ("s", "u_inv", "v_inv")

    @property
    def diagonal(self) -> Vector:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s.entries[i][i] for i in range(n))

    @property
    def invariant_factors(self) -> Vector:
        return tuple(d for d in self.diagonal if d != 0)


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form with transforms.

    Returns S, U^-1, V^-1 with U^-1 A V^-1 = S exactly, U^-1 and V^-1
    unimodular, S diagonal with non-negative entries satisfying the
    divisibility chain d_i | d_{i+1}.  Pivots are chosen by minimal
    absolute value, ties broken by smallest (row, col), which makes the
    output deterministic.
    """
    rows, cols = a.rows, a.cols
    s = [list(row) for row in a.entries]
    uinv = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    vinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    # Row op S <- E S is mirrored by U^{-1} <- E U^{-1}; column op
    # S <- S F by V^{-1} <- V^{-1} F.
    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in vinv:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, k):
        # row i += k * row j
        s[i] = [x + k * y for x, y in zip(s[i], s[j])]
        uinv[i] = [x + k * y for x, y in zip(uinv[i], uinv[j])]

    def add_col(j, i, k):
        # col j += k * col i
        for r in s:
            r[j] += k * r[i]
        for r in vinv:
            r[j] += k * r[i]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        uinv[i] = [-x for x in uinv[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = s[i][j]
                if x != 0 and (best is None or (abs(x), i, j) < best):
                    best = (abs(x), i, j)
        return None if best is None else (best[1], best[2])

    for t in range(min(rows, cols)):
        while True:
            pos = find_pivot(t)
            if pos is None:
                break
            i, j = pos
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // p
                    add_row(i, t, -q)
                    dirty = dirty or s[i][t] != 0
            for j in range(t + 1, cols):
                if s[t][j] != 0:
                    q = s[t][j] // p
                    add_col(j, t, -q)
                    dirty = dirty or s[t][j] != 0
            if dirty:
                continue
            # Cross is clear; force the pivot to divide the rest of the block.
            offender = next(
                (
                    i
                    for i in range(t + 1, rows)
                    if any(x % p for x in s[i][t + 1 :])
                ),
                None,
            )
            if offender is None:
                break
            add_row(t, offender, 1)
        if pos is None:
            break

    for t in range(min(rows, cols)):
        if s[t][t] < 0:
            negate_row(t)

    return SNFResult(
        IntMatrix._of(tuple(map(tuple, s))),
        IntMatrix._of(tuple(map(tuple, uinv))),
        IntMatrix._of(tuple(map(tuple, vinv))),
    )


def kernel_basis(a: IntMatrix) -> tuple[Vector, ...]:
    """Basis of the saturated integer kernel {x : A x = 0}.

    The basis vectors are primitive, with first non-zero entry positive,
    and the list is canonically reduced so equal kernels compare equal.
    """
    snf = smith_normal_form(a)
    diag = snf.diagonal
    free = [j for j in range(a.cols) if j >= len(diag) or diag[j] == 0]
    vectors = [snf.v_inv.column(j) for j in free]
    return _reduce_rows(vectors)


def _reduce_rows(vectors: Sequence[Vector]) -> tuple[Vector, ...]:
    """Canonical (Hermite-style) row reduction of a lattice basis."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return ()
    cols = len(rows[0])
    r = 0
    for j in range(cols):
        pool = [i for i in range(r, len(rows)) if rows[i][j] != 0]
        if not pool:
            continue
        # Euclid on the column entries below the pivot row.
        while len(pool) > 1:
            pool.sort(key=lambda i: abs(rows[i][j]))
            i0 = pool[0]
            for i in pool[1:]:
                q = rows[i][j] // rows[i0][j]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
            pool = [i for i in pool if rows[i][j] != 0]
        i0 = pool[0]
        rows[r], rows[i0] = rows[i0], rows[r]
        if rows[r][j] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][j] // rows[r][j]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r])


class FGAbelianGroup(Record):
    """Finitely generated abelian group in canonical form.

    ``torsion`` lists the invariant factors > 1, each dividing the next.
    """

    __slots__ = ("free_rank", "torsion")
    _defaults = {"torsion": ()}

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for i, d in enumerate(self.torsion):
            if d <= 1:
                raise ValueError("torsion factors must be > 1")
            if i and d % self.torsion[i - 1]:
                raise ValueError("torsion factors must form a divisibility chain")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"
