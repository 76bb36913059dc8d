"""Exact rational arithmetic helpers.

Everything in the engine is computed over Q.  ``QQ`` is gmpy2's mpq when
available and the stdlib Fraction otherwise; both expose .numerator and
.denominator, which is all the serialization layer relies on.  A series
stores a coefficient as a plain ``int`` when it is integral and as a ``QQ``
otherwise (:func:`canon`), since most coefficients are integers and int
arithmetic is the cheapest; an integral ``QQ`` is correct, only slower.
Beware division: ``int / int`` is a float, so a quotient is formed as
``QQ(num, den)`` or with a ``QQ`` operand (``ONE / x`` below).

The matrix routines operate on plain lists of lists of rationals and use
fraction-free/ordinary Gaussian elimination.  Sizes here are tiny (fan
dimension <= 3, a few dozen basis elements), so clarity wins over vectorized
cleverness.
"""

from __future__ import annotations

from typing import Sequence

try:  # pragma: no cover - exercised implicitly by every test
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)


def canon(x):
    """The stored form of a rational: int when integral, QQ otherwise."""
    if x.__class__ is int:
        return x
    if x.__class__ is not QQ:
        x = QQ(x)
    return int(x.numerator) if x.denominator == 1 else x


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_inv(rows: Sequence[Sequence]) -> list[list]:
    """Inverse of a square matrix over Q.  Raises ZeroDivisionError if singular.

    A^-1 is the right half of rref([A | I]), whose pivots are the first n
    columns exactly when A is invertible.
    """
    n = len(rows)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                        for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in red]


def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q.

    Returns (reduced rows, pivot column indices).  Zero rows are dropped.
    """
    m = [[QQ(x) for x in row] for row in rows]
    pivots: list[int] = []
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv_p = ONE / m[rank][col]
        m[rank] = [x * inv_p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    return m[:rank], pivots
