"""Small dense exact/big-float linear algebra.

Everything here targets the tiny systems of the series recurrences and the
subequation fitter: a few rows to a few dozen rows.  Two code paths share
one interface; matrices whose entries are all exact rationals are solved
exactly by Gauss-Jordan on Python ints (each row scaled to ints once, one
Fraction per entry of the result), anything else is solved in complex
big-floats with a relative pivot threshold of 2**(-precision/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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


def _int_rref(rows, ncols):
    """_rref for exact Scalar rows, on ints: each row is scaled by the lcm
    of its denominators, any nonzero entry p pivots, and each other row
    with an entry f in p's column becomes (p*row - f*pivot_row)/g, p and f
    over their gcd, g the gcd of the new row.  Returns the rows, the pivot
    columns and (num, den), which undo the factor of those steps (lcms, p,
    g, swaps) on the determinant: a full rank square matrix has determinant
    prod(pivot entries) * num / den."""
    num, den, out = 1, 1, []
    for row in rows:
        row = [e.fraction() for e in row]
        m = math.lcm(*(q.denominator for q in row))
        out.append([q.numerator * (m // q.denominator) for q in row])
        den *= m
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(out)) if out[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            out[r], out[pr], num = out[pr], out[r], -num
        top = out[r]
        for i, row in enumerate(out):
            if i != r and row[c]:
                g = math.gcd(top[c], row[c])
                p, f = top[c] // g, row[c] // g
                row = [p * v - f * w for v, w in zip(row, top)]
                g = math.gcd(*row)
                if g > 1:
                    row = [v // g for v in row]
                    num *= g
                out[i], den = row, den * p
        pivots.append(c)
    return out, pivots, (num, den)


def _rref(rows, ncols, thresh):
    """Row-reduce rows of mpc values in place (exact systems take
    _int_rref); the first ncols columns are the matrix, the rest ride along.

    Each column pivots on its largest magnitude above thresh (0 for
    determinants).  Returns the pivot columns, the pivot values before
    normalisation and the parity (+1/-1) of the row swaps, so that a full
    rank square matrix has determinant parity * prod(pivot values).
    """
    pivots, values, parity = [], [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = max(range(r, len(rows)), key=lambda i: abs(rows[i][c]))
        if not abs(rows[pr][c]) > thresh:
            continue
        if pr != r:
            rows[r], rows[pr], parity = rows[pr], rows[r], -parity
        pivot = rows[r][c]
        inv = 1 / pivot
        top = rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [v - row[c] * w for v, w in zip(row, top)]
        pivots.append(c)
        values.append(pivot)
    return pivots, values, parity


def _assemble(pivots, rows, ncols, thresh, to_scalar) -> LinearSolution:
    """Particular solution and nullspace basis, as Scalars, from the RREF
    of [A | b]; a leftover rhs entry above thresh makes it inconsistent."""
    rank = len(pivots)
    if any(abs(row[ncols]) > thresh for row in rows[rank:]):
        return LinearSolution(kind="inconsistent", rank=rank)
    particular = [0] * ncols
    for r, c in enumerate(pivots):
        particular[c] = rows[r][ncols]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][fc]
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
        rows, pivots, _ = _int_rref(
            [A.row(i) + [v] for i, v in enumerate(b)], A.cols)
        # one Fraction per entry _assemble reads: the rhs and free columns
        free = [j for j in range(A.cols + 1) if j not in pivots]
        for row, c in zip(rows, pivots):
            for j in free:
                row[j] = Fraction(row[j], row[c])
        return _assemble(pivots, rows, A.cols, 0, Scalar.exact)

    bits = max(A.precision(), max((v.precision for v in b), default=64))
    with mp.workprec(bits + 20):
        rows = [[e.mpc(bits) for e in A.row(i) + [v]] for i, v in enumerate(b)]
        scale = max([abs(e) for r in rows for e in r[:-1]] + [mpmath.mpf(1)])
        bscale = max([abs(r[-1]) for r in rows] + [scale])
        thresh = half_precision_tol(bits) * scale
        bthresh = half_precision_tol(bits) * bscale
        pivots, _, _ = _rref(rows, A.cols, thresh)
        return _assemble(pivots, rows, A.cols, bthresh,
                         lambda v: Scalar.from_mpc(v, bits))


def determinant(A: DenseMatrix) -> Scalar:
    """Determinant; exact for exact-rational entries."""
    if A.rows != A.cols:
        raise ContractViolation("determinant of a non-square matrix")
    n = A.rows
    if A.is_exact():
        rows, pivots, (num, den) = _int_rref([A.row(i) for i in range(n)], n)
        if len(pivots) < n:
            return Scalar.exact(0)
        diagonal = math.prod(row[i] for i, row in enumerate(rows))
        return Scalar.exact(diagonal * num, den)
    bits = A.precision()
    with mp.workprec(bits + 20):
        rows = [[e.mpc(bits) for e in A.row(i)] for i in range(n)]
        # any nonzero pivot counts: a determinant has no rank decision to make
        pivots, values, parity = _rref(rows, n, 0)
        det = parity * math.prod(values) if len(pivots) == n else mpmath.mpc(0)
        return Scalar.from_mpc(det, bits)

