"""Small dense exact/big-float linear algebra.

Everything here targets the tiny systems of the series recurrences and the
subequation fitter: a few rows to a few dozen rows.  Two code paths share
one interface; matrices whose entries are all exact rationals are solved
exactly with Fraction arithmetic, anything else is solved in complex
big-floats with a relative pivot threshold of 2**(-precision/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
from mpmath import mp

from .errors import ContractViolation
from .scalars import Scalar, as_scalar, half_precision_tol


class DenseMatrix:
    """Immutable row-major matrix of Scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(as_scalar(e) for e in entries)
        if rows <= 0 or cols <= 0:
            raise ContractViolation("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ContractViolation(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ContractViolation("empty matrix")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ContractViolation("ragged rows")
        flat = [e for r in rows for e in r]
        return cls(len(rows), ncols, flat)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def is_exact(self) -> bool:
        return all(e.is_exact for e in self.entries)

    def precision(self) -> int:
        return max(e.precision for e in self.entries)

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(self[i, j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"DenseMatrix({self.rows}x{self.cols}: {body})"


@dataclass
class LinearSolution:
    """Classification plus data for a linear system A x = b.

    kind is one of "unique", "parametrized", "inconsistent".  For
    "unique" the solution is in ``solution``; for "parametrized" a
    particular solution is in ``solution`` and ``nullspace`` holds a basis
    of the homogeneous solutions.
    """

    kind: str
    solution: list | None = None
    nullspace: list = field(default_factory=list)
    rank: int = 0

    @property
    def nullspace_dim(self) -> int:
        return len(self.nullspace)


def _rref(a, b, thresh):
    """Row-reduce [a | b] in place over Fractions or mpc values.

    Each column pivots on its largest magnitude above thresh (0 for
    Fractions and for determinants).  Returns the pivot columns, the pivot values before
    normalisation and the parity (+1/-1) of the row swaps, so that a full
    rank square a has determinant parity * prod(pivot values).
    """
    nrows, ncols = len(a), len(a[0])
    pivots, values, parity = [], [], 1
    r = 0
    for c in range(ncols):
        pr, best = None, thresh
        for i in range(r, nrows):
            m = abs(a[i][c])
            if m > best:
                pr, best = i, m
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            b[r], b[pr] = b[pr], b[r]
            parity = -parity
        pivot = a[r][c]
        inv = 1 / pivot
        a[r] = [v * inv for v in a[r]]
        b[r] = b[r] * inv
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
                b[i] = b[i] - f * b[r]
        pivots.append(c)
        values.append(pivot)
        r += 1
        if r == nrows:
            break
    return pivots, values, parity


def _assemble(pivots, a, b, ncols, thresh, to_scalar) -> LinearSolution:
    """Particular solution and nullspace basis, as Scalars, from an RREF;
    a leftover rhs entry above thresh makes the system inconsistent."""
    rank = len(pivots)
    if any(abs(v) > thresh for v in b[rank:]):
        return LinearSolution(kind="inconsistent", rank=rank)
    particular = [0] * ncols
    for r, c in enumerate(pivots):
        particular[c] = b[r]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r, c in enumerate(pivots):
            vec[c] = -a[r][fc]
        basis.append([to_scalar(v) for v in vec])
    return LinearSolution(kind="parametrized" if basis else "unique",
                          solution=[to_scalar(v) for v in particular],
                          nullspace=basis, rank=rank)


def solve_linear(A: DenseMatrix, b) -> LinearSolution:
    """Solve A x = b, classifying the system exactly or to tolerance.

    Exact-rational inputs are classified exactly.  Otherwise all rank
    decisions use the relative pivot threshold 2**(-precision/2), with
    precision the maximum bits across the entries.
    """
    b = [as_scalar(v) for v in b]
    if len(b) != A.rows:
        raise ContractViolation(
            f"rhs length {len(b)} does not match {A.rows} rows"
        )
    if A.is_exact() and all(v.is_exact for v in b):
        rows = [[e.fraction() for e in A.row(i)] for i in range(A.rows)]
        rhs = [v.fraction() for v in b]
        pivots, _, _ = _rref(rows, rhs, 0)
        return _assemble(pivots, rows, rhs, A.cols, 0, Scalar.exact)

    bits = max(A.precision(), max((v.precision for v in b), default=64))
    with mp.workprec(bits + 20):
        rows = [[e.mpc(bits) for e in A.row(i)] for i in range(A.rows)]
        scale = max([abs(e) for r in rows for e in r] + [mpmath.mpf(1)])
        rhs = [v.mpc(bits) for v in b]
        bscale = max([abs(v) for v in rhs] + [scale])
        thresh = half_precision_tol(bits) * scale
        bthresh = half_precision_tol(bits) * bscale
        pivots, _, _ = _rref(rows, rhs, thresh)
        return _assemble(pivots, rows, rhs, A.cols, bthresh,
                         lambda v: Scalar.from_mpc(v, bits))


def determinant(A: DenseMatrix) -> Scalar:
    """Determinant; exact for exact-rational entries."""
    if A.rows != A.cols:
        raise ContractViolation("determinant of a non-square matrix")
    n = A.rows
    if A.is_exact():
        rows = [[e.fraction() for e in A.row(i)] for i in range(n)]
        pivots, values, parity = _rref(rows, [0] * n, 0)
        return Scalar.exact(parity * math.prod(values) if len(pivots) == n else 0)
    bits = A.precision()
    with mp.workprec(bits + 20):
        rows = [[e.mpc(bits) for e in A.row(i)] for i in range(n)]
        # any nonzero pivot counts: a determinant has no rank decision to make
        pivots, values, parity = _rref(rows, [mpmath.mpc(0)] * n, 0)
        det = parity * math.prod(values) if len(pivots) == n else mpmath.mpc(0)
        return Scalar.from_mpc(det, bits)

