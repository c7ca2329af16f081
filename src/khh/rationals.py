"""Exact rational arithmetic.

All coefficients in this package are exact rationals: arbitrary-precision
integers over a positive denominator, always in lowest terms, as the
stdlib Fraction.  Linear algebra does not compute in this type: `linalg`
stores int rows over a common denominator and eliminates on ints, and QQ
appears only in normal forms, chain coefficients and the vectors and class
coordinates that `linalg` hands back.

Sparse combinations (polynomials, chains, matrix rows) are dicts key ->
coefficient that never store a zero: `SparseMatrix`'s canonical storage
and the int path of `from_images` rely on it.  `add_term` is the one place
a term is added and a sum that cancels to zero is dropped; only the matrix
product `SparseMatrix.__matmul__` sums first and drops zeros once at the
end.
"""

from __future__ import annotations

from fractions import Fraction as QQ


def add_term(out, key, c):
    """out[key] += c on a sparse dict; a key whose sum is zero is dropped.

    The sum starts from the int 0, so int coefficients stay ints.
    """
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def qq(value, den=None):
    """Coerce to an exact rational.  Accepts ints, rationals and 'p/q' strings."""
    if den is not None:
        return QQ(value, den)
    if isinstance(value, str):
        if "/" in value:
            num, d = value.split("/", 1)
            return QQ(int(num), int(d))
        return QQ(int(value))
    return QQ(value)


def qq_str(value) -> str:
    """Canonical text form: 'p' or 'p/q' with q > 1."""
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"

