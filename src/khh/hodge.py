"""Eulerian idempotents and Adams operations on bar slices.

The symmetric group acts on degree-n tensors by place permutation of the
bar entries; the idempotents e_n^(1), ..., e_n^(n) live in QQ[S_n] and are
extracted from the descent generating identity

    lambda_k = sum_sigma sgn(sigma) * C(k + n - 1 - d(sigma), n) * sigma
             = sum_i k^i * e_n^(i).

C(k + n - 1 - d, n) = prod_{r<n} (k - d + r) / n! is a polynomial in k
with no constant term, so e_n^(i) takes the coefficient of k^i of each
sigma's polynomial (Loday, Cyclic Homology, section 4.5); nothing is
solved.  Published variants differ in whether d counts descents of sigma
or of its inverse; under the place action used here the descents of
sigma give idempotents that commute with b (the test suite probes both
variants).  The table is self-certifying: completeness, orthogonality
and the antisymmetrizer identity are checked exactly, on int vectors over
the table's common denominator with products read from a composition
table of S_n, and every slice application re-checks completeness of the
acting matrices, which each SliceContext builds once per slice.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb, factorial, lcm

from .rationals import QQ
from .linalg import SparseMatrix
from .errors import IdempotentSanityError


@lru_cache(maxsize=None)
def _perms(n: int):
    return tuple(permutations(range(n)))


def _descents(perm) -> int:
    return sum(1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def _sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _inverse(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def _compose(a, b):
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[i]] for i in range(len(a)))


@lru_cache(maxsize=None)
def _composition_table(n: int):
    """table[a][b] = index of perms[a] o perms[b], for perms = _perms(n)."""
    perms = _perms(n)
    index = {p: k for k, p in enumerate(perms)}
    return tuple(tuple(index[_compose(a, b)] for b in perms) for a in perms)


def lambda_element(n: int, k: int, inverse_descents: bool = False) -> dict:
    """The k-th Adams element of QQ[S_n] from the descent identity."""
    out = {}
    for perm in _perms(n):
        d = _descents(_inverse(perm)) if inverse_descents else _descents(perm)
        c = comb(k + n - 1 - d, n) if k + n - 1 - d >= 0 else 0
        if c:
            out[perm] = QQ(_sign(perm) * c)
    return out


def _solve_idempotents(n: int, inverse_descents: bool):
    """e^(1..n) read off the descent identity's coefficients in k.

    The coefficient of sigma in lambda_k is sgn(sigma) times
    C(k + n - 1 - d, n) = prod_{r<n} (k - d + r) / n!, a polynomial in k
    with no constant term, so the coefficient of sigma in e^(i) is
    sgn(sigma) [t^i] prod_{r<n} (t - d + r) / n!.
    """
    top = factorial(n)
    coeffs = []  # coeffs[d][i] = [t^i] prod_{r<n} (t - d + r), ints
    for d in range(n):
        poly = [1]
        for r in range(n):
            # times (t + r - d)
            poly = [a + (r - d) * b for a, b in zip([0] + poly, poly + [0])]
        coeffs.append(poly)
    idems = [{} for _ in range(n)]
    for perm in _perms(n):
        d = _descents(_inverse(perm)) if inverse_descents else _descents(perm)
        sign = _sign(perm)
        for i, e in enumerate(idems, start=1):
            if coeffs[d][i]:
                e[perm] = QQ(sign * coeffs[d][i], top)
    return idems


def _validate_table(n: int, idems):
    """Completeness, orthogonality and the antisymmetrizer identity, exactly.

    Each e^(i) is read as an int vector E_i over the table's common
    denominator D (e^(i) = E_i / D), indexed like _perms(n); products go
    through the composition table, so e^(i) e^(j) = delta_ij e^(i) is
    E_i * E_j = delta_ij D E_i over the ints.
    """
    perms = _perms(n)
    index = {p: k for k, p in enumerate(perms)}
    den = lcm(*(c.denominator for e in idems for c in e.values()))
    vecs = []
    for e in idems:
        vec = [0] * len(perms)
        for perm, c in e.items():
            vec[index[perm]] = c.numerator * (den // c.denominator)
        vecs.append(vec)
    # perms[0] is the identity
    if [sum(col) for col in zip(*vecs)] != [den] + [0] * (len(perms) - 1):
        raise IdempotentSanityError(f"idempotents at n={n} do not sum to the identity")
    table = _composition_table(n)
    support = [[(a, c) for a, c in enumerate(vec) if c] for vec in vecs]
    for i, ei in enumerate(support):
        for j, ej in enumerate(support):
            prod = [0] * len(perms)
            for a, ca in ei:
                row = table[a]
                for b, cb in ej:
                    prod[row[b]] += ca * cb
            expect = [den * v for v in vecs[i]] if i == j else [0] * len(perms)
            if prod != expect:
                raise IdempotentSanityError(
                    f"e^({i+1}) * e^({j+1}) != {'e' if i == j else '0'} at n={n}"
                )
    top = factorial(n)
    if any(v * top != den * _sign(p) for v, p in zip(vecs[-1], perms)):
        raise IdempotentSanityError(f"e^({n}) is not the antisymmetrizer at n={n}")


def element_matrix(element: dict, ctx, n: int, w) -> SparseMatrix:
    """Action of a QQ[S_n] element on the (n, w) slice.

    A permutation acts by place permutation of the bar entries, the head
    fixed: out[perm(i)] = in[i], read off as out[k] = in[inv(k)] with each
    inverse taken once.  The element is scaled to ints over the common
    denominator of its coefficients (a divisor of n!), so the entries are
    summed as ints and the matrix is scaled by 1/den once.
    """
    den = lcm(*(c.denominator for c in element.values()))
    scaled = [
        (tuple(k + 1 for k in _inverse(perm)), c.numerator * (den // c.denominator))
        for perm, c in element.items()
    ]

    def image(tensor):
        head = tensor[:1]
        return ((head + tuple([tensor[k] for k in inv]), c) for inv, c in scaled)

    index = ctx.index(n, w)
    return SparseMatrix.from_images(len(index), ctx.basis(n, w), image, index).scale(QQ(1, den))


# descents of sigma, not of its inverse: the variant whose idempotents commute with b
_INVERSE_DESCENTS = False


@lru_cache(maxsize=None)
def eulerian_idempotents(n: int):
    """The validated table (e^(1), ..., e^(n)) as QQ[S_n] elements."""
    if n < 1:
        return ()
    idems = _solve_idempotents(n, _INVERSE_DESCENTS)
    _validate_table(n, tuple(idems))
    return tuple(idems)


def idempotent_matrix(ctx, n: int, w, i: int) -> SparseMatrix:
    """Chain-level matrix of e_n^(i) on the (n, w) slice (1 <= i <= n)."""
    return element_matrix(eulerian_idempotents(n)[i - 1], ctx, n, w)


def adams_matrix(ctx, n: int, w, k: int) -> SparseMatrix:
    """Chain-level psi_k on the (n, w) slice, from the descent identity."""
    return element_matrix(lambda_element(n, k, _INVERSE_DESCENTS), ctx, n, w)


def check_slice_completeness(ctx, n: int, w):
    """Sum of acting idempotent matrices must be the identity, exactly.

    It sums the context's cached matrices, the ones every consumer of the
    slice reads.
    """
    dim = ctx.dim(n, w)
    total = SparseMatrix.zero(dim, dim)
    for i in range(1, n + 1):
        total = total + ctx.idempotent_matrix(n, w, i)
    if total != SparseMatrix.identity(dim):
        raise IdempotentSanityError(
            f"idempotent matrices do not sum to the identity on (n={n}, w={w})"
        )
