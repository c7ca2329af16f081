"""Hochschild and cyclic homology per (degree, weight) slice.

HH_n comes from the normalized bar complex slice.  In positive weight HC_n
comes from Connes' complex C^lambda (Loday, Cyclic Homology, Thm 2.1.5),
and each dimension is checked against Goodwillie's HC_n = sum_k (-1)^k
HH_{n-k}, which holds over Q in positive weight because S vanishes there.
Weight 0 and the corrupt conventions use the (b, B) total complex
truncated at the connectedness bound (each weight slice of the bicomplex
is finite, so the truncation is exact bookkeeping, not an approximation).
Class-level work (representatives, Hodge projections, psi_2) runs through
QuotientSpace, which keeps exact class coordinates on the free
coordinates of d_n.

Each dimension is dim C_n - rank d_n - rank d_{n+1}, and the ranks are
chain-compressed by `linalg.chain_rank`: where d_{m-1} d_m = 0 has been
verified exactly, d_m is ranked without its rows at the pivot columns of
d_{m-1}'s factor, itself compressed the same way.  Where that identity
fails, which only the corrupt conventions reach, d_m is ranked in full.
The quotient path factors d_n in natural order and d_{n+1}'s columns at
d_n's free coordinates (the second lemma in `linalg`), so the class count
it checks against the ranks comes from separate eliminations.

An engine builds each slice value once: dimensions, total-complex
matrices, quotient spaces and induced idempotents are `slice_memo`
entries, keyed by method and arguments with the weight coerced to a
vector.  With `KHH_CACHE_DIR` set, HH and HC dimensions also go through
the on-disk cell cache (`cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import SparseMatrix, QuotientSpace, chain_rank
from .errors import (
    IdempotentSanityError,
    OracleDisagreementError,
    PreconditionError,
)
from .algebra import GradedAlgebra, slice_memo, vec_total
from .barcomplex import BarChain, SliceContext, Convention, convention, chain_str
from . import hodge


@dataclass
class HodgeSplit:
    dims: tuple
    total: int
    adams_eigendims: tuple


class HomologyEngine:
    """All slice homology for one algebra under one sign convention."""

    def __init__(self, algebra: GradedAlgebra, conv: Convention | str = "standard"):
        self.algebra = algebra
        self.ctx = SliceContext(algebra, conv)
        self.conv = self.ctx.conv
        self._memo = {}  # the slice_memo entries

    # -- Hochschild -----------------------------------------------------

    @slice_memo
    def hh_dim(self, n: int, w) -> int:
        if n < 0:
            return 0
        return self._cached_cell("hh", n, w, lambda: self._homology_dim("bar", n, w))

    def _cached_cell(self, kind, n, w, compute):
        from . import cache

        path = cache.cell_path(self.algebra.presentation, self.conv.name, kind, n, w)
        if path is None:
            return compute()
        value = cache.get(path)
        if value is None:
            value = compute()
            cache.put(path, value)
        return value

    @slice_memo
    def hh_space(self, n: int, w) -> QuotientSpace:
        space = QuotientSpace(*self._differentials("bar", n, w))
        _check_space_dim(space, self.hh_dim(n, w), "HH", n, w)
        return space

    def hh_slice(self, n: int, w):
        """(dimension, representative cycles) of HH_n at weight w."""
        space = self.hh_space(n, w)
        basis = self.ctx.basis(n, w)
        reps = [
            BarChain(self.algebra, n, {basis[i]: c for i, c in rep.items()})
            for rep in space.reps
        ]
        return space.dim, reps

    # -- cyclic -----------------------------------------------------------

    def total_blocks(self, m: int):
        """Degrees of the total-complex blocks at T_m: m, m-2, ..."""
        return [m - 2 * k for k in range(m // 2 + 1)] if m >= 0 else []

    @slice_memo
    def total_matrix(self, m: int, w) -> SparseMatrix:
        """D_m : T_m -> T_{m-1} of the (b, B) total complex."""
        src_degs = self.total_blocks(m)
        blocks = []
        for k, deg in enumerate(src_degs):
            if deg >= 1:
                blocks.append((k, k, self.ctx.b_matrix(deg, w)))
            if k >= 1:
                blocks.append((k - 1, k, self.ctx.B_matrix(deg, w)))
        return SparseMatrix.from_blocks(
            [self.ctx.dim(d, w) for d in self.total_blocks(m - 1)],
            [self.ctx.dim(d, w) for d in src_degs],
            blocks,
        )

    @slice_memo
    def hc_dim(self, n: int, w) -> int:
        """HC_n at weight w: Connes' complex in positive weight, where the
        Goodwillie sum of HH dimensions must agree, else the total complex."""
        if n < 0:
            return 0
        connes = not self.conv.corrupt and vec_total(w) > 0
        complex_ = "connes" if connes else "total"
        value = self._cached_cell("hc", n, w, lambda: self._homology_dim(complex_, n, w))
        if connes:
            goodwillie = sum((-1) ** k * self.hh_dim(n - k, w) for k in range(n + 1))
            if value != goodwillie:
                raise OracleDisagreementError(
                    f"HC_{n} at weight {w}: {value} from Connes' complex, "
                    f"{goodwillie} from the alternating sum of HH"
                )
        return value

    # -- chain complexes: the bar complex, Connes' and the total complex ----

    def _differential(self, complex_, m, w) -> SparseMatrix:
        """d_m of the "bar", "connes" or "total" complex at weight w."""
        if complex_ == "bar":
            return self.ctx.b_matrix(m, w)
        if complex_ == "connes":
            return self.ctx.cyclic_b_matrix(m, w)
        return self.total_matrix(m, w)

    def _identities(self, complex_, m, w):
        """[(identity, degree)] that hold together exactly when d_m d_{m+1} = 0.

        On the total complex, the degree-d block of T_{m+1} reaches degree
        d - 2 through b.b, degree d through b.B + B.b and degree d + 2
        through B.B; these land in distinct blocks, so D_m D_{m+1} = 0
        exactly when each identity that occurs holds.
        """
        if complex_ == "bar":
            return [("b.b", m)]
        if complex_ == "connes":
            return [("cyclic b.b", m)]
        out = []
        for k, d in enumerate(self.total_blocks(m + 1)):
            if d >= 2:
                out.append(("b.b", d - 1))
            if k >= 1:
                out.append(("b.B + B.b", d))
            if k >= 2:
                out.append(("B.B", d))
        return out

    def _differentials(self, complex_, n, w):
        """(d_{n+1}, d_n), once d_n d_{n+1} = 0 is verified."""
        for identity, d in self._identities(complex_, n, w):
            self.ctx.verify(identity, d, w)
        return self._differential(complex_, n + 1, w), self._differential(complex_, n, w)

    def _homology_dim(self, complex_, n, w) -> int:
        """dim C_n - rank d_n - rank d_{n+1}, once d_n d_{n+1} = 0 is verified."""
        d_out = self._differentials(complex_, n, w)[1]
        return d_out.cols - self._rank(complex_, n, w) - self._rank(complex_, n + 1, w)

    def _rank(self, complex_, m, w) -> int:
        """rank d_m by `linalg.chain_rank`, compressed where the identities hold."""
        return chain_rank(
            lambda k: self._differential(complex_, k, w), m,
            lambda k: all(self.ctx.holds(i, j, w) for i, j in self._identities(complex_, k - 1, w)),
        )

    # -- Hodge/Adams -------------------------------------------------------

    def hodge_split(self, n: int, w) -> HodgeSplit:
        """Dims of the Eulerian idempotent images on the homology slice,
        cross-checked against psi_2 eigenspaces, each counted as
        dim HH - rank(psi_2 - 2^i)."""
        if n < 1:
            raise PreconditionError("hodge_split needs n >= 1")
        w = self.algebra._coerce_weight(w)
        hodge.check_slice_completeness(self.ctx, n, w)
        space = self.hh_space(n, w)
        dims = [self.hodge_class_matrix(n, w, i).rank() for i in range(1, n + 1)]
        total = space.dim
        if sum(dims) != total:
            raise IdempotentSanityError(
                f"hodge pieces sum to {sum(dims)} != dim HH = {total} at (n={n}, w={w})"
            )
        psi2 = space.induced_matrix(hodge.adams_matrix(self.ctx, n, w, 2), space)
        identity = SparseMatrix.identity(total)
        eigendims = tuple(
            total - (psi2 - identity.scale(2**i)).rank() for i in range(1, n + 1)
        )
        if tuple(dims) != eigendims or sum(eigendims) != total:
            raise OracleDisagreementError(
                f"psi_2 eigenspace dims {eigendims} disagree with idempotent dims "
                f"{tuple(dims)} at (n={n}, w={w})"
            )
        return HodgeSplit(tuple(dims), total, eigendims)

    @slice_memo
    def hodge_class_matrix(self, n: int, w, i: int) -> SparseMatrix:
        """e_n^(i) induced on the classes of hh_space(n, w)."""
        space = self.hh_space(n, w)
        return space.induced_matrix(self.ctx.idempotent_matrix(n, w, i), space)


def _check_space_dim(space: QuotientSpace, dim: int, kind: str, n: int, w) -> None:
    """The quotient's class count must equal the dimension from the ranks."""
    if space.dim != dim:
        raise OracleDisagreementError(
            f"{kind}_{n} at weight {w}: {space.dim} classes from the quotient, "
            f"dimension {dim} from the ranks"
        )


# -- Kunneth comparison --------------------------------------------------


@dataclass
class KunnethCell:
    n: int
    w: int
    j: int
    kind: str  # "hh" or "hc"
    left: int | None
    right: int | None
    status: str  # "ok", "mismatch", "sanity"


@dataclass
class KunnethReport:
    algebra: str
    convention: str
    n_max: int
    w_max: int
    t_cutoff: int
    cells: list = field(default_factory=list)

    @property
    def mismatches(self):
        return [c for c in self.cells if c.status != "ok"]

    @property
    def passed(self):
        return not self.mismatches


def verify_kunneth(
    algebra: GradedAlgebra,
    t_cutoff: int,
    n_max: int,
    w_max: int,
    conv="standard",
    jobs: int | None = None,
) -> KunnethReport:
    """Compare HH/HC of A[t] against the polynomial-extension formula.

    Left side: bar-complex oracle on A[t], bigraded by (weight of A, t-degree).
    Right side: HH_n(A[t])_{w,j} = HH_n(A)_w + [j>=1] HH_{n-1}(A)_w and
    HC_n(A[t])_{w,0} = HC_n(A)_w with off-axis HC cells equal to HH_n(A)_w.
    """
    if algebra.weight_rank != 1:
        raise PreconditionError("verify_kunneth expects a rank-1 graded algebra")
    conv = convention(conv) if isinstance(conv, str) else conv
    ext = algebra.with_polynomial_generator("t")
    report = KunnethReport(algebra.name, conv.name, n_max, w_max, t_cutoff)

    cells = [
        (kind, n, w, j)
        for kind in ("hh", "hc")
        for n in range(n_max + 1)
        for w in range(w_max + 1)
        for j in range(t_cutoff + 1)
    ]
    # the base side: every HH and HC cell of A that the right side reads
    base_cells = [(kind, n, w) for kind in ("hh", "hc") for n in range(n_max + 1)
                  for w in range(w_max + 1)]
    from .workpool import map_cells

    values = map_cells(
        (ext, algebra), conv.name,
        [(0, kind, n, (w, j)) for kind, n, w, j in cells]
        + [(1, kind, n, (w,)) for kind, n, w in base_cells],
        jobs,
    )
    base_values = dict(zip(base_cells, values[len(cells) :]))

    def base(kind, n, w):
        return base_values[kind, n, w] if n >= 0 else 0

    for (kind, n, w, j), left in zip(cells, values):
        if kind == "hh":
            terms = [base("hh", n, w)] + ([base("hh", n - 1, w)] if j >= 1 else [])
        else:
            terms = [base("hc", n, w) if j == 0 else base("hh", n, w)]
        right = None if None in terms else sum(terms)
        if left is None or right is None:
            status = "sanity"
        else:
            status = "ok" if left == right else "mismatch"
        report.cells.append(KunnethCell(n, w, j, kind, left, right, status))
    return report


# -- cusp cycle search -----------------------------------------------------


CUSP_TEXT = "algebra cusp\nvars x:2 y:3\nrel y^2 - x^3"


@dataclass
class CuspCycleReport:
    i_max: int
    z_is_cycle: bool = False
    z_class_nonzero: bool = False
    tz_class_nonzero: bool = False
    convention_found: str | None = None
    sign_pattern: tuple | None = None
    per_convention: list = field(default_factory=list)
    fallback_classes: dict = field(default_factory=dict)  # i -> (dim, chain string)


def verify_cusp_cycles(i_max: int) -> CuspCycleReport:
    """Check the cusp's generating cycles and bracket the sign ambiguity.

    (a) z = 2x[y] + 3y[x] is a cycle with a nonzero class in HH_1 weight 5,
        and 2y[y] + 3x^2[x] is nonzero in HH_1 weight 6.
    (b) search the 8 sign patterns of [y|y] - x[x|x] - [x^2|x], under the
        standard and the transposed b, for a degree-2 chain whose shuffle
        products with z stay cycles with nonzero classes in HH_{2i-1}.
    (c) if nothing works, exhibit nonzero classes in those slices anyway.
    """
    from .algebra import parse_algebra
    from .barcomplex import parse_chain

    if i_max < 1:
        raise PreconditionError("i_max >= 1 required")
    cusp = parse_algebra(CUSP_TEXT)
    report = CuspCycleReport(i_max)

    std = SliceContext(cusp, "standard")
    z = parse_chain(cusp, "2*x[y] + 3*y[x]")
    tz = parse_chain(cusp, "2*y[y] + 3*x^2[x]")
    report.z_is_cycle = std.b_chain(z).is_zero()
    report.z_class_nonzero = report.z_is_cycle and not std.in_boundary(z)
    report.tz_class_nonzero = std.b_chain(tz).is_zero() and not std.in_boundary(tz)

    base_terms = ["[y|y]", "x[x|x]", "[x^2|x]"]
    if i_max >= 2:
        for conv_name in ("standard", "b-transpose"):
            ctx = SliceContext(cusp, conv_name)
            for bits in range(8):
                signs = tuple(1 if bits & (1 << k) == 0 else -1 for k in range(3))
                text = " + ".join(
                    ("" if s == 1 else "-") + t for s, t in zip(signs, base_terms)
                ).replace("+ -", "- ")
                wstar = parse_chain(cusp, text)
                ok = True
                for i in range(2, i_max + 1):
                    prod = ctx.shuffle(z, ctx.shuffle_power(wstar, i - 1))
                    if not ctx.b_chain(prod).is_zero():
                        ok = False
                        break
                    if prod.is_zero() or ctx.in_boundary(prod):
                        ok = False
                        break
                report.per_convention.append(
                    {"convention": conv_name, "signs": signs, "works": ok}
                )
                if ok and report.convention_found is None:
                    report.convention_found = conv_name
                    report.sign_pattern = signs
    if i_max >= 2 and report.convention_found is None:
        engine = HomologyEngine(cusp, "standard")
        for i in range(2, i_max + 1):
            n, w = 2 * i - 1, 5 + 6 * (i - 1)
            dim, reps = engine.hh_slice(n, w)
            report.fallback_classes[i] = (
                dim,
                chain_str(reps[0]) if reps else None,
            )
    return report
