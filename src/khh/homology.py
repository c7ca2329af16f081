"""Hochschild and cyclic homology per (degree, weight) slice.

HH_n comes from the normalized bar complex slice.  In positive weight HC_n
comes from Connes' complex C^lambda (Loday, Cyclic Homology, Thm 2.1.5),
and each dimension is checked against Goodwillie's HC_n = sum_k (-1)^k
HH_{n-k}, which holds over Q in positive weight because S vanishes there.
Weight 0, the corrupt conventions and every class-level HC computation
(`hc_space`, SBI) use the (b, B) total complex truncated at the
connectedness bound (each weight slice of the bicomplex is finite, so the
truncation is exact bookkeeping, not an approximation); `hc_space` then
checks its class count against the Connes dimension.  Class-level work
(representatives, Hodge projections, SBI maps) runs through QuotientSpace,
which keeps exact class coordinates over a cycles-mod-boundaries echelon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rationals import QQ
from .linalg import SparseMatrix, Echelon, QuotientSpace, eigenspace
from .errors import (
    IdempotentSanityError,
    OracleDisagreementError,
    PreconditionError,
    SanityError,
)
from .algebra import GradedAlgebra, vec_total
from .barcomplex import BarChain, SliceContext, Convention, convention, chain_str
from . import hodge


@dataclass
class HodgeSplit:
    dims: tuple
    total: int
    adams_eigendims: tuple


@dataclass
class HomologyReport:
    """Per-(n, w) dimension table with Hodge pieces and representatives."""

    algebra: str
    convention: str
    table: dict = field(default_factory=dict)  # (n, w) -> {"hh":, "hc":, "hodge": tuple}
    representatives: dict = field(default_factory=dict)  # (n, w, i) -> [chain strings]


class HomologyEngine:
    """All slice homology for one algebra under one sign convention."""

    def __init__(self, algebra: GradedAlgebra, conv: Convention | str = "standard"):
        self.algebra = algebra
        self.ctx = SliceContext(algebra, conv)
        self.conv = self.ctx.conv
        self._hh = {}
        self._hc = {}
        self._total_mats = {}
        self._quotients = {}
        self._hodge_classes = {}

    # -- Hochschild -----------------------------------------------------

    def hh_dim(self, n: int, w) -> int:
        w = self.algebra._coerce_weight(w)
        key = (n, w)
        if key not in self._hh:
            if n < 0:
                self._hh[key] = 0
            else:
                self._hh[key] = self._cached_cell(
                    "hh", n, w,
                    lambda: _betti(*self._hh_differentials(n, w)),
                )
        return self._hh[key]

    def _hh_differentials(self, n, w):
        """(b_{n+1}, b_n), once b_n b_{n+1} = 0 is verified."""
        self.ctx.verify("b.b", n, w)
        return self.ctx.b_matrix(n + 1, w), self.ctx.b_matrix(n, w)

    def _cached_cell(self, kind, n, w, compute):
        from . import cache
        from .workpool import _algebra_payload

        if cache.cache_dir() is None:
            return compute()
        key = cache.cell_key(_algebra_payload(self.algebra), self.conv.name, kind, n, w)
        value = cache.get(key)
        if value is None:
            value = compute()
            cache.put(key, value)
        return value

    def hh_space(self, n: int, w) -> QuotientSpace:
        w = self.algebra._coerce_weight(w)
        key = ("hh", n, w)
        if key not in self._quotients:
            space = QuotientSpace(*self._hh_differentials(n, w))
            _check_space_dim(space, self.hh_dim(n, w), "HH", n, w)
            self._quotients[key] = space
        return self._quotients[key]

    def hh_slice(self, n: int, w):
        """(dimension, representative cycles) of HH_n at weight w."""
        space = self.hh_space(n, w)
        basis = self.ctx.basis(n, self.algebra._coerce_weight(w))
        reps = [
            BarChain(self.algebra, n, {basis[i]: c for i, c in rep.items()})
            for rep in space.reps
        ]
        return space.dim, reps

    # -- cyclic -----------------------------------------------------------

    def total_blocks(self, m: int, w):
        """Degrees of the total-complex blocks at T_m: m, m-2, ..."""
        return [m - 2 * k for k in range(m // 2 + 1)] if m >= 0 else []

    def total_matrix(self, m: int, w) -> SparseMatrix:
        """D_m : T_m -> T_{m-1} of the (b, B) total complex."""
        w = self.algebra._coerce_weight(w)
        key = (m, w)
        cached = self._total_mats.get(key)
        if cached is not None:
            return cached
        src_degs = self.total_blocks(m, w)
        dst_degs = self.total_blocks(m - 1, w)
        src_off, pos = [], 0
        for d in src_degs:
            src_off.append(pos)
            pos += self.ctx.dim(d, w)
        src_total = pos
        dst_off, pos = [], 0
        for d in dst_degs:
            dst_off.append(pos)
            pos += self.ctx.dim(d, w)
        dst_total = pos
        blocks = []
        for k, deg in enumerate(src_degs):
            if deg >= 1:
                blocks.append((dst_off[k], src_off[k], self.ctx.b_matrix(deg, w)))
            if k >= 1:
                blocks.append((dst_off[k - 1], src_off[k], self.ctx.B_matrix(deg, w)))
        mat = SparseMatrix.from_blocks(dst_total, src_total, blocks)
        self._total_mats[key] = mat
        return mat

    def hc_dim(self, n: int, w) -> int:
        """HC_n at weight w: Connes' complex in positive weight, where the
        Goodwillie sum of HH dimensions must agree, else the total complex."""
        if n < 0:
            return 0
        w = self.algebra._coerce_weight(w)
        key = (n, w)
        if key not in self._hc:
            connes = not self.conv.corrupt and vec_total(w) > 0
            differentials = self._connes_differentials if connes else self._hc_differentials
            value = self._cached_cell("hc", n, w, lambda: _betti(*differentials(n, w)))
            if connes:
                goodwillie = sum((-1) ** k * self.hh_dim(n - k, w) for k in range(n + 1))
                if value != goodwillie:
                    raise OracleDisagreementError(
                        f"HC_{n} at weight {w}: {value} from Connes' complex, "
                        f"{goodwillie} from the alternating sum of HH"
                    )
            self._hc[key] = value
        return self._hc[key]

    def _connes_differentials(self, n, w):
        """(b_{n+1}, b_n) on Connes' complex, once their product is verified."""
        self.ctx.verify("cyclic b.b", n, w)
        return self.ctx.cyclic_b_matrix(n + 1, w), self.ctx.cyclic_b_matrix(n, w)

    def _hc_differentials(self, n, w):
        """(D_{n+1}, D_n), once every block of D_n D_{n+1} is verified.

        From the degree-d block of T_{n+1}, the product lands in degree d - 2
        through b.b, in degree d through b.B + B.b and in degree d + 2
        through B.B; these land in distinct blocks, so D_n D_{n+1} = 0
        exactly when each identity that occurs holds.
        """
        for k, d in enumerate(self.total_blocks(n + 1, w)):
            if d >= 2:
                self.ctx.verify("b.b", d - 1, w)
            if k >= 1:
                self.ctx.verify("b.B + B.b", d, w)
            if k >= 2:
                self.ctx.verify("B.B", d, w)
        return self.total_matrix(n + 1, w), self.total_matrix(n, w)

    def hc_space(self, n: int, w) -> QuotientSpace:
        w = self.algebra._coerce_weight(w)
        key = ("hc", n, w)
        if key not in self._quotients:
            space = QuotientSpace(*self._hc_differentials(n, w))
            _check_space_dim(space, self.hc_dim(n, w), "HC", n, w)
            self._quotients[key] = space
        return self._quotients[key]

    # -- Hodge/Adams -------------------------------------------------------

    def hodge_split(self, n: int, w) -> HodgeSplit:
        """Dims of the Eulerian idempotent images on the homology slice,
        cross-checked against psi_2 eigenspaces."""
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
        eigendims = tuple(len(eigenspace(psi2, QQ(2) ** i)) for i in range(1, n + 1))
        if tuple(dims) != eigendims or sum(eigendims) != total:
            raise OracleDisagreementError(
                f"psi_2 eigenspace dims {eigendims} disagree with idempotent dims "
                f"{tuple(dims)} at (n={n}, w={w})"
            )
        return HodgeSplit(tuple(dims), total, eigendims)

    def hodge_class_matrix(self, n: int, w, i: int) -> SparseMatrix:
        """e_n^(i) induced on the classes of hh_space(n, w)."""
        w = self.algebra._coerce_weight(w)
        key = (n, w, i)
        if key not in self._hodge_classes:
            space = self.hh_space(n, w)
            self._hodge_classes[key] = space.induced_matrix(
                self.ctx.idempotent_matrix(n, w, i), space
            )
        return self._hodge_classes[key]

    def hodge_representatives(self, n: int, w, i: int):
        """Cycle representatives spanning the i-th Hodge piece of HH_n."""
        w = self.algebra._coerce_weight(w)
        space = self.hh_space(n, w)
        emat = self.ctx.idempotent_matrix(n, w, i)
        basis = self.ctx.basis(n, w)
        picked = []
        ech = Echelon(space.dim)
        for rep in space.reps:
            img = emat.apply(rep)
            if ech.add_row(space.coords(img)) is not None:
                picked.append(
                    BarChain(self.algebra, n, {basis[r]: c for r, c in img.items()})
                )
        return picked

    def report(self, n_max: int, w_max, with_reps=False) -> HomologyReport:
        rep = HomologyReport(self.algebra.name, self.conv.name)
        for n in range(n_max + 1):
            for w in self._weights_upto(w_max):
                entry = {"hh": self.hh_dim(n, w), "hc": self.hc_dim(n, w)}
                if n >= 1 and entry["hh"]:
                    entry["hodge"] = self.hodge_split(n, w).dims
                else:
                    entry["hodge"] = (0,) * n
                rep.table[(n, w)] = entry
                if with_reps and entry["hh"]:
                    for i in range(1, n + 1):
                        chains = self.hodge_representatives(n, w, i)
                        if chains:
                            rep.representatives[(n, w, i)] = [chain_str(c) for c in chains]
        return rep

    def _weights_upto(self, w_max):
        if isinstance(w_max, int):
            if self.algebra.weight_rank != 1:
                raise PreconditionError("weight cutoff rank mismatch")
            return [(v,) for v in range(w_max + 1)]
        return [
            w
            for w in self.algebra.weight_vectors_upto(w_max)
        ]

    # -- SBI ----------------------------------------------------------------

    def sbi_check(self, n: int, w) -> dict:
        """Exactness of HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} at the middle."""
        w = self.algebra._coerce_weight(w)
        hh_n = self.hh_space(n, w)
        hc_n = self.hc_space(n, w)
        hc_n2 = self.hc_space(n - 2, w) if n >= 2 else None
        hh_n1 = self.hh_space(n - 1, w) if n >= 1 else None
        dim_cn = self.ctx.dim(n, w)
        t_n = self.total_matrix(n, w).cols
        # I: C_n included as block 0 of T_n
        inc = SparseMatrix.from_blocks(t_n, dim_cn, [(0, 0, SparseMatrix.identity(dim_cn))])
        i_star = hh_n.induced_matrix(inc, hc_n)
        result = {"n": n, "w": w}
        if hc_n2 is not None:
            # S: T_n -> T_{n-2} drops the leading block
            proj = SparseMatrix.from_blocks(
                t_n - dim_cn, t_n, [(0, dim_cn, SparseMatrix.identity(t_n - dim_cn))]
            )
            s_star = hc_n.induced_matrix(proj, hc_n2)
            # connecting map: B of the leading block of a T_{n-2} cycle
            dim_cn2 = self.ctx.dim(n - 2, w)
            lead = SparseMatrix.from_blocks(
                dim_cn2, hc_n2.ambient_dim, [(0, 0, SparseMatrix.identity(dim_cn2))]
            )
            del_star = hc_n2.induced_matrix(self.ctx.B_matrix(n - 2, w) @ lead, hh_n1)
            exact_at_hcn = (
                (s_star @ i_star).is_zero()
                and i_star.rank() == hc_n.dim - s_star.rank()
            )
            exact_at_hcn2 = (
                (del_star @ s_star).is_zero()
                and s_star.rank() == hc_n2.dim - del_star.rank()
            )
            result.update(exact_at_hc_n=exact_at_hcn, exact_at_hc_n2=exact_at_hcn2)
        else:
            # short range: exactness at HC_n degenerates to surjectivity of I
            result.update(exact_at_hc_n=i_star.rank() == hc_n.dim, exact_at_hc_n2=True)
        return result


def _betti(d_in: SparseMatrix, d_out: SparseMatrix) -> int:
    """dim ker(d_out) - rank(d_in); the caller has verified d_out d_in = 0."""
    return d_out.cols - d_out.rank() - d_in.rank()


def _check_space_dim(space: QuotientSpace, dim: int, kind: str, n: int, w) -> None:
    """The echelon's class count must equal the dimension from the ranks."""
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
    base = HomologyEngine(algebra, conv)
    report = KunnethReport(algebra.name, conv.name, n_max, w_max, t_cutoff)

    cells = [
        (kind, n, w, j)
        for kind in ("hh", "hc")
        for n in range(n_max + 1)
        for w in range(w_max + 1)
        for j in range(t_cutoff + 1)
    ]
    from .workpool import map_cells

    left_values = map_cells(ext, conv.name, cells, jobs)

    for (kind, n, w, j), left in zip(cells, left_values):
        try:
            if kind == "hh":
                right = base.hh_dim(n, w) + (base.hh_dim(n - 1, w) if j >= 1 else 0)
            else:
                right = base.hc_dim(n, w) if j == 0 else base.hh_dim(n, w)
        except SanityError:
            right = None
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


def verify_cusp_cycles(i_max: int, algebra: GradedAlgebra | None = None) -> CuspCycleReport:
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
    cusp = algebra if algebra is not None else parse_algebra(CUSP_TEXT)
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
