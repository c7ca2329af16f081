"""Fibers of one-point resolution squares and their typical pieces.

A ResolutionSquare couples a singular connected graded algebra with a
smooth target (one branch per component of the normalization) through a
weight-preserving map and a conductor ideal.  For squares whose exceptional
locus is the single reduced center point, the descent side collapses to
the target's Hochschild complex, so the fiber is the shifted mapping cone
of the induced chain map; its cohomology in degree 1-n is the typical
piece TK_n.  A nilpotent-kernel collapse (dual numbers onto their
reduction) is accepted as the degenerate square where the blow-up is the
reduced subscheme.

The algebra and each branch get their own HomologyEngine, so every HH
dimension, quotient space and induced Hodge idempotent of the fiber comes
from the same checked layer as `khh hh`.  Only the square stacks the
branches, always in branch order on the slots of `linalg`'s block layout:
the cone differential, the class map with its block-diagonal idempotents,
nu on A_w (`_stacked_hom_matrix`, rows keyed by `_stacked_index`), and the
conductor.  The cone is checked identity by identity (`cone_holds`) and
ranked by `linalg.chain_rank`, like every complex of the engines.

The conductor is one layer of the square with one stacked target.  Its
nonzero images in each branch are computed once, at construction.
`_conductor_slices(w)` memoizes c_w in A and cB_w, the block diagonal of
the branches' ideal slices on the stacked target, and
`conductor_quotients(w)` their cokernels (A/c)_w and (B/cB)_w.  Finite
colength is decided exactly, by Krull dimension 0 of each quotient's
presentation.  `validate` certifies a square up to the weight asked, at
least up to PROBE, and far enough past the quotients' top weight for a
trailing window: there the kernel of nu must be nilpotent, which is
decided exactly (`GradedAlgebra.is_nilpotent`), cB_w must lie in the image
of nu, and both quotients must vanish on the window, which makes them
vanish above it.  The units Mayer-Vietoris computations certify the
square and then read the exact top weight `_colength_top`, above which
both quotients vanish, so no weight bound enters their sums: Picard
growth over polynomial extensions via unipotent units of the finite
quotient rings (one induced map of nu into (B/cB)_w per weight), the
seminormalization for monomial curves, and the NK_0 crosscheck
pairing the two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import comb

from .rationals import QQ, add_term
from .linalg import SparseMatrix, QuotientSpace, chain_rank
from .errors import (
    CompositionNonzeroError,
    OracleDisagreementError,
    ParseError,
    SquareInvalidError,
    UnsupportedDimensionError,
)
from .algebra import (
    GradedAlgebra,
    GradedHom,
    parse_algebra_block,
    parse_poly,
    slice_memo,
    split_blocks,
    vec_total,
)
from .homology import HomologyEngine
from .kahler import DifferentialForms

PROBE = 14  # the weight a square is certified to when no bound is asked


def ideal_slice_matrix(algebra: GradedAlgebra, gens, w) -> SparseMatrix:
    """Columns spanning the weight-w slice of the ideal (gens)."""
    w = algebra._coerce_weight(w)
    basis = algebra.weight_basis(w)
    multiples = []  # (m, g) with m * g of weight w
    for g in gens:
        gw = algebra.poly_weight(g)
        if gw is None:
            continue
        rest = tuple(a - b for a, b in zip(w, gw))
        if any(x < 0 for x in rest):
            continue
        multiples.extend((m, g) for m in algebra.weight_basis(rest))
    index = {m: i for i, m in enumerate(basis)}
    return SparseMatrix.from_images(
        len(basis), multiples, lambda mg: algebra.multiply({mg[0]: QQ(1)}, mg[1]), index
    )


def _block_diagonal(mats) -> SparseMatrix:
    """The matrices placed corner to corner along the diagonal."""
    return SparseMatrix.from_blocks(
        [m.rows for m in mats], [m.cols for m in mats], [(k, k, m) for k, m in enumerate(mats)]
    )


class ResolutionSquare:
    """A singular algebra, its normalization branches, and the conductor.

    `engine_A` computes the homology of the algebra and `branch_engines`
    that of each branch, one HomologyEngine apiece on the standard
    convention.  The square adds the chain maps, one per branch, and what
    stacks the branches: the cone differentials and the class maps.  Its
    per-slice matrices and conductor quotients are `slice_memo` entries of
    its one `_memo`.
    """

    def __init__(self, algebra, branches, conductor):
        if not branches:
            raise SquareInvalidError("at least one normalization branch required")
        if not conductor:
            raise SquareInvalidError("conductor generators required")
        self.algebra = algebra
        self.branches = tuple(branches)  # (GradedAlgebra, GradedHom) pairs
        self.conductor = tuple(algebra.nf(c) for c in conductor)
        # the conductor's nonzero images, one tuple per branch
        self.conductor_images = tuple(
            tuple(img for img in map(hom.apply, self.conductor) if img)
            for _, hom in self.branches
        )
        self.kernel_nilpotent = False
        self.center_is_exceptional = len(self.branches) == 1
        self._validated_upto = -1
        self.engine_A = HomologyEngine(algebra)
        self.branch_engines = tuple(HomologyEngine(B) for B, _ in self.branches)
        self._memo = {}  # the slice_memo entries

    # -- parsing --------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ResolutionSquare":
        blocks, extras = split_blocks(text)
        if not blocks:
            raise ParseError("square file needs at least the source algebra block")
        by_name = {}
        for block in blocks:
            algebra = parse_algebra_block(block)
            if algebra.name in by_name:
                raise ParseError(f"repeated algebra name {algebra.name!r}", block[0][0])
            by_name[algebra.name] = algebra
        source = next(iter(by_name.values()))
        branches = []
        conductor = []
        for lineno, line in extras:
            parts = [(m.start(), m.group()) for m in re.finditer(r"\S+", line)]
            head = parts[0][1]
            if head == "normalize":
                if len(parts) < 2:
                    raise ParseError("normalize needs a target algebra", lineno)
                target = by_name.get(parts[1][1])
                if target is None:
                    raise ParseError(f"unknown target algebra {parts[1][1]!r}", lineno)
                images = {}
                for start, item in parts[2:]:
                    if "->" not in item:
                        raise ParseError(f"expected gen->poly, got {item!r}", lineno)
                    gen, poly = item.split("->", 1)
                    if gen not in source.gens:
                        raise ParseError(f"unknown generator {gen!r}", lineno)
                    images[gen] = parse_poly(poly, target.gens, lineno, start + len(gen) + 2)
                missing = [g for g in source.gens if g not in images]
                if missing:
                    raise ParseError(f"missing images for {missing}", lineno)
                hom = GradedHom(
                    source, target, [images[g] for g in source.gens]
                )
                branches.append((target, hom))
            elif head == "conductor":
                for start, item in parts[1:]:
                    conductor.append(parse_poly(item, source.gens, lineno, start))
            else:
                raise ParseError(f"unknown directive {head!r}", lineno)
        return cls(source, branches, conductor)

    # -- validation -------------------------------------------------------

    def validate(self, w=None):
        """Certify the square up to weight w, at least up to PROBE, and at
        least maxgw + 1 past the top weight of the conductor quotients.

        The checks resume above the last certified weight.  Finite colength
        is decided exactly (`_colength_top`), then certified again on the
        trailing window of `conductor_quotients`: both quotients are
        generated in weights up to the largest generator weight maxgw, so
        vanishing on maxgw + 1 consecutive weights is vanishing at every
        weight above them, and the bound puts that window above the top.
        """
        A = self.algebra
        if A.weight_rank != 1:
            raise SquareInvalidError("squares are for rank-1 graded algebras")
        bound = PROBE if w is None else max(PROBE, vec_total(A._coerce_weight(w)))
        if bound <= self._validated_upto:
            return self
        maxgw = max(
            (vec_total(wt) for alg in (A, *(B for B, _ in self.branches)) for wt in alg.weights),
            default=1,
        )
        # the trailing window below must lie above both quotients' top weight
        bound = max(bound, self._colength_top + maxgw + 1)
        weights = range(self._validated_upto + 1, bound + 1)
        # kernel per weight: injective, or nilpotent (thickening collapse)
        for w in weights:
            basis = A.weight_basis((w,))
            for vec in self._stacked_hom_matrix(w).kernel_basis():
                poly = {basis[i]: c for i, c in vec.items()}
                if not A.is_nilpotent(poly):
                    raise SquareInvalidError(
                        f"normalization map has a non-nilpotent kernel at weight {w}"
                    )
                self.kernel_nilpotent = True
        # conductor is an ideal of the target contained in the image
        for w in weights:
            nu_columns = self._stacked_hom_matrix(w).column_echelon()
            if not all(map(nu_columns.contains, self._conductor_slices(w)[1].columns())):
                raise SquareInvalidError(f"conductor element escapes the image at weight {w}")
        # finite colength on both sides, certified on a trailing window
        for w in range(max(1, bound - maxgw), bound + 1):
            for side, quot in zip(("A", "target"), self.conductor_quotients(w)):
                if quot.dim != 0:
                    raise SquareInvalidError(
                        f"{side}/conductor not finite: nonzero in weight {w}"
                    )
        self._validated_upto = bound
        return self

    @cached_property
    def _colength_top(self) -> int:
        """The top weight of A/c and of every B_k/cB_k; -1 where all are zero.

        Finite colength is decided exactly: a quotient is finite exactly when
        its presentation plus the conductor has Krull dimension 0.  A unit
        generator (free1's conductor 1) makes its quotient zero.
        """
        sides = [("A", self.algebra, self.conductor)]
        sides += [("target", B, imgs) for (B, _), imgs in zip(self.branches, self.conductor_images)]
        top = -1
        for side, algebra, gens in sides:
            gens = [g for g in gens if g]
            if any(vec_total(algebra.poly_weight(g)) == 0 for g in gens):
                continue  # a unit; GradedAlgebra rejects it as a weight-0 relation
            quotient = GradedAlgebra(
                algebra.name, algebra.gens, algebra.weights, [*algebra.relations, *gens]
            )
            dim = quotient.krull_dim()
            if dim:
                raise SquareInvalidError(f"{side}/conductor not finite: Krull dimension {dim}")
            top = max(top, quotient.top_weight())
        return top

    @slice_memo
    def _conductor_slices(self, w) -> tuple:
        """c_w in A, then cB_w on the stacked target (rows as `_stacked_index`)."""
        branch_slices = [
            ideal_slice_matrix(B, imgs, w)
            for (B, _), imgs in zip(self.branches, self.conductor_images)
        ]
        return ideal_slice_matrix(self.algebra, self.conductor, w), _block_diagonal(branch_slices)

    @slice_memo
    def conductor_quotients(self, w) -> tuple:
        """(A/c)_w and (B/cB)_w, the latter on the stacked target."""
        return tuple(
            QuotientSpace(mat, SparseMatrix.zero(0, mat.rows)) for mat in self._conductor_slices(w)
        )

    @slice_memo
    def _stacked_index(self, w) -> dict:
        """Row of each (branch k, monomial) in the stacked weight-w target slice."""
        index = {}
        for k, (B, _) in enumerate(self.branches):
            for m in B.weight_basis(w):
                index[(k, m)] = len(index)
        return index

    @slice_memo
    def _stacked_hom_matrix(self, w) -> SparseMatrix:
        """nu on the weight-w algebra slices, stacked over branches."""
        def image(m):
            return {
                (k, t): c
                for k, (_, hom) in enumerate(self.branches)
                for t, c in hom.apply_mono(m).items()
            }

        index = self._stacked_index(w)
        return SparseMatrix.from_images(len(index), self.algebra.weight_basis(w), image, index)

    # -- chain-level machinery ---------------------------------------------

    @slice_memo
    def chain_map_matrix(self, n: int, w) -> tuple:
        """Induced maps C_n(A) -> C_n(branch) on the weight-w slice, one per branch."""
        src = self.engine_A.ctx.basis(n, w)
        mats = []
        for (_, hom), engine in zip(self.branches, self.branch_engines):
            index = engine.ctx.index(n, w)
            image = partial(self._tensor_image, hom)
            mats.append(SparseMatrix.from_images(len(index), src, image, index))
        return tuple(mats)

    @staticmethod
    def _tensor_image(hom: GradedHom, tensor):
        parts = []
        for m in tensor:
            img = hom.apply_mono(m)
            if not img:
                return {}
            parts.append(img)
        acc = {(): QQ(1)}
        for img in parts:
            nxt = {}
            for t, c in acc.items():
                for m, v in img.items():
                    add_term(nxt, t + (m,), c * v)
            acc = nxt
        return acc

    @slice_memo
    def cone_matrix(self, q: int, w) -> SparseMatrix:
        """D_q of the shifted cone G: G_q = C_q(A) + C_{q+1}(branches).

        Rows are C_{q-1}(A) then each branch's C_q; columns are C_q(A) then
        each branch's C_{q+1}.  Branch k contributes its chain map and -b.
        """
        ctx_A = self.engine_A.ctx
        ctxs = [engine.ctx for engine in self.branch_engines]
        blocks = [(0, 0, ctx_A.b_matrix(q, w))] if q >= 1 else []
        if q >= 0:
            for k, (chain_map, ctx) in enumerate(zip(self.chain_map_matrix(q, w), ctxs), 1):
                blocks += [(k, 0, chain_map), (k, k, ctx.b_matrix(q + 1, w).scale(-1))]
        return SparseMatrix.from_blocks(
            [ctx_A.dim(q - 1, w), *(ctx.dim(q, w) for ctx in ctxs)],
            [ctx_A.dim(q, w), *(ctx.dim(q + 1, w) for ctx in ctxs)],
            blocks,
        )

    @slice_memo
    def cone_holds(self, q: int, w) -> bool:
        """Does D_q D_{q+1} = 0 hold at weight w?  Its blocks are b.b on A and on
        each branch (the contexts' `holds`) and f_q b_{q+1} - b_{q+1} f_{q+1}."""
        ctx_A, ctxs = self.engine_A.ctx, [engine.ctx for engine in self.branch_engines]
        b_A = ctx_A.b_matrix(q + 1, w)
        return ctx_A.holds("b.b", q, w) and all(
            ctx.holds("b.b", q + 1, w)
            and ctx_A._products_cancel([(f, b_A), (ctx.b_matrix(q + 1, w), g.scale(-1))])
            for f, g, ctx in zip(self.chain_map_matrix(q, w), self.chain_map_matrix(q + 1, w), ctxs)
        )

    # -- homology-level maps ----------------------------------------------

    @slice_memo
    def class_map(self, n: int, w) -> SparseMatrix:
        """HH_n(A) -> sum of HH_n(branch) on classes, branches stacked."""
        if n < 0:
            return SparseMatrix.zero(0, 0)
        source = self.engine_A.hh_space(n, w)
        targets = [engine.hh_space(n, w) for engine in self.branch_engines]
        blocks = [
            (k, 0, source.induced_matrix(chain_map, target))
            for k, (chain_map, target) in enumerate(zip(self.chain_map_matrix(n, w), targets))
        ]
        return SparseMatrix.from_blocks([t.dim for t in targets], [source.dim], blocks)

    def _target_hh(self, n: int, w) -> int:
        """dim of HH_n of the branches together; 0 for n < 0."""
        return sum(engine.hh_dim(n, w) for engine in self.branch_engines)

    # -- fiber dimensions ----------------------------------------------------

    def fiber_dims(self, m: int, w) -> int:
        """dim H^m(F) at weight w; cohomological H^{-q} is homological q."""
        self.validate(w)
        q = -m
        if not self.cone_holds(q, w):
            raise CompositionNonzeroError(f"cone D_{q} D_{q + 1} != 0 at (m={m}, w={w})")
        ranks = (
            chain_rank(lambda j: self.cone_matrix(j, w), k, lambda j: self.cone_holds(j - 1, w))
            for k in (q, q + 1)
        )
        cone = self.cone_matrix(q, w).cols - sum(ranks)
        # long exact sequence bookkeeping, computed independently
        r_q = self.class_map(q, w).rank()
        r_q1 = self.class_map(q + 1, w).rank()
        expect = (self.engine_A.hh_dim(q, w) - r_q) + (self._target_hh(q + 1, w) - r_q1)
        if cone != expect:
            raise OracleDisagreementError(
                f"cone homology {cone} != LES bookkeeping {expect} at "
                f"(m={m}, w={w})"
            )
        return cone

    def tk(self, n: int, w) -> int:
        """Typical piece: H^{1-n} of the fiber at weight w."""
        return self.fiber_dims(1 - n, w)

    # -- Hodge pieces of the fiber --------------------------------------------

    def _piece_data(self, q: int, w, p: int):
        """(dim_A, dim_B, rank of the map) on Hodge piece p at degree q."""
        if q < 0 or p < 0 or (q >= 1 and not 1 <= p <= q) or (q == 0 and p != 0):
            return 0, 0, 0
        mat = self.class_map(q, w)
        if q == 0:
            return self.engine_A.hh_dim(0, w), self._target_hh(0, w), mat.rank()
        eA = self.engine_A.hodge_class_matrix(q, w, p)
        eB = _block_diagonal(
            [engine.hodge_class_matrix(q, w, p) for engine in self.branch_engines]
        )
        # the map respects the splitting; certify on this slice
        if not ((eB @ mat) - (mat @ eA)).is_zero():
            raise OracleDisagreementError(
                f"chain map fails to commute with e^({p}) at (q={q}, w={w})"
            )
        return eA.rank(), eB.rank(), (mat @ eA).rank()

    def tk_hodge(self, n: int, w, i: int) -> int:
        """H^{1-n} of the (i-1)-st Hodge piece of the fiber."""
        self.validate(w)
        p = i - 1
        dA1, dB1, r1 = self._piece_data(n - 1, w, p)
        dA0, dB0, r0 = self._piece_data(n, w, p)
        return (dA1 - r1) + (dB0 - r0)

    def tk_formula_check(self, n_max: int, w_max: int) -> "TkFormulaReport":
        """Compare TK_n^(i) with the (i-1)-st piece of HH_{n-1}(A), i < n."""
        report = TkFormulaReport(self.algebra.name, n_max, w_max)
        for n in range(1, n_max + 1):
            for i in range(1, n):
                agg_left = agg_right = 0
                for w in range(w_max + 1):
                    left = self.tk_hodge(n, w, i)
                    dA, _, _ = self._piece_data(n - 1, w, i - 1)
                    right = dA
                    agg_left += left
                    agg_right += right
                    report.cells.append(
                        {"n": n, "i": i, "w": w, "tk_hodge": left,
                         "hh_piece": right, "equal": left == right}
                    )
                report.aggregates.append(
                    {"n": n, "i": i, "tk_total": agg_left,
                     "hh_total": agg_right, "equal": agg_left == agg_right}
                )
        return report

    # -- cdh cohomology of forms ----------------------------------------------

    def cdh_omega(self, p: int, q: int, w) -> int:
        """H^q_cdh of Omega^p at weight w for one-point squares (q in {0, 1}).

        cdh descent for the abstract blow-up square X' = the branches over X,
        center a point, E_red one point per branch, gives the Mayer-Vietoris
        sequence 0 -> H^0 -> Omega^p(B) + Omega^p(pt) -> Omega^p(E_red) ->
        H^1 -> 0, the terms to its right vanishing on smooth affine schemes.
        For p >= 1 the points carry no forms, so H^0 = Omega^p(B) and H^1 =
        0.  For p = 0 the map (b, z) -> (b_k(pt) - z) is onto k^#branches,
        so H^1 = 0; it lives in weight 0, where its kernel is one-dimensional
        (the sections that agree at the center), and above it H^0 = B_w.
        """
        self.validate(w)
        if q not in (0, 1):
            raise UnsupportedDimensionError(
                f"cdh cohomology of forms implemented for q in {{0,1}}, got {q}"
            )
        w = self.algebra._coerce_weight(w)
        if q == 1:
            return 0  # the map onto Omega^p(E_red) is onto
        if p == 0:
            total = sum(B.dim(w) for B, _ in self.branches)
            if vec_total(w) == 0:
                total = 1  # the kernel in weight 0: sections agree at the center
            return total
        return sum(DifferentialForms(B).dim(p, w) for B, _ in self.branches)


@dataclass
class TkFormulaReport:
    algebra: str
    n_max: int
    w_max: int
    cells: list = field(default_factory=list)
    aggregates: list = field(default_factory=list)

    @property
    def cellwise_equal(self):
        return all(c["equal"] for c in self.cells)

    @property
    def aggregate_equal(self):
        return all(c["equal"] for c in self.aggregates)


# -- conductor-square Picard machinery ----------------------------------------


@dataclass
class PicReport:
    algebra: str
    poly_vars: int
    degree_cutoff: int
    unipotent_rank: int  # N = dim coker on nilpotent units
    per_degree: dict = field(default_factory=dict)  # s-degree -> dim
    torus_rank: int = 0


def pic_conductor(square: ResolutionSquare, poly_vars: int, degree_cutoff: int = 6) -> PicReport:
    """Picard growth of A[s_1..s_m] per s-degree from the units sequence.

    Units of the artinian graded quotients split as constants times
    unipotents 1 + n; in characteristic zero log identifies the unipotent
    part with the positive-weight slice of the quotient, so the cokernel
    is exact linear algebra on conductor quotients.
    """
    n_total = 0
    for w in range(1, square.validate()._colength_top + 1):
        quot_A, quot_B = square.conductor_quotients(w)
        if quot_B.dim:
            # image of nil(A/c): map A_w through nu into the stacked (B/cB)_w
            image = quot_A.induced_matrix(square._stacked_hom_matrix(w), quot_B)
            n_total += quot_B.dim - image.rank()
    report = PicReport(square.algebra.name, poly_vars, degree_cutoff, n_total)
    for j in range(degree_cutoff + 1):
        # monomials of degree j in poly_vars variables
        report.per_degree[j] = n_total * (comb(j + poly_vars - 1, j) if poly_vars else j == 0)
    return report


@dataclass
class Seminormalization:
    status: str  # OK | ALREADY_SEMINORMAL | UNSUPPORTED
    added_weights: tuple = ()
    note: str = ""

    @property
    def quotient_dim(self):
        return len(self.added_weights)


def seminormalization(square: ResolutionSquare) -> Seminormalization:
    """A^+/A for the desk corpus.

    If the conductor is radical in the target (and A is reduced) the ring
    is seminormal and A^+ = A.  Otherwise, for a monomial curve, close the
    value semigroup under m with 2m, 3m already present.
    """
    top = square.validate()._colength_top
    A = square.algebra
    if any(A.is_nilpotent(A.gen_poly(i)) for i in range(A.ngens)):
        return Seminormalization("UNSUPPORTED", note="not reduced")
    nil_til = sum(square.conductor_quotients(w)[1].dim for w in range(1, top + 1))
    if nil_til == 0:
        return Seminormalization("ALREADY_SEMINORMAL",
                                 note="conductor is radical in the target")
    if len(square.branches) != 1:
        return Seminormalization("UNSUPPORTED",
                                 note="multi-branch non-seminormal rings not handled")
    B, hom = square.branches[0]
    if B.ngens != 1 or B.relations:
        return Seminormalization("UNSUPPORTED", note="target is not a line")
    tau = vec_total(B.weights[0])
    exps = []
    for img in hom.images:
        if not img:
            continue
        if len(img) != 1:
            return Seminormalization("UNSUPPORTED", note="non-monomial curve")
        mono, coeff = next(iter(img.items()))
        if coeff != 1:
            return Seminormalization("UNSUPPORTED", note="non-monomial curve")
        exps.append(mono[0])
    bound = top // tau + 1
    # the semigroup the exponents generate, up to 3 * bound: one ascending
    # sieve, since every exponent is positive
    semigroup = {0}
    for s in range(1, 3 * bound + 1):
        if any(s - e in semigroup for e in exps):
            semigroup.add(s)
    closure = set(semigroup)
    changed = True
    while changed:
        changed = False
        for m in range(1, bound + 1):
            if m not in closure and 2 * m in closure and 3 * m in closure:
                closure.add(m)
                # closing up: sums with existing elements reappear
                for s in list(closure):
                    if s + m <= 3 * bound:
                        closure.add(s + m)
                changed = True
    added = sorted(m for m in closure - semigroup if m * tau <= top)
    return Seminormalization("OK", added_weights=tuple(m * tau for m in added))


@dataclass
class Nk0Report:
    """The Picard growth and the seminormalization that the crosscheck pairs."""

    pic: PicReport  # over one polynomial variable
    semi: Seminormalization

    @property
    def status(self):  # OK | UNSUPPORTED
        return "UNSUPPORTED" if self.semi.status == "UNSUPPORTED" else "OK"

    @property
    def pic_growth(self):
        """Pic(A[s])/Pic(A) per s-degree j >= 1; empty when unsupported."""
        if self.status != "OK":
            return {}
        return {j: self.pic.per_degree[j] for j in range(1, self.pic.degree_cutoff + 1)}

    @property
    def passed(self):
        growth = self.pic_growth.values()
        return self.status == "OK" and all(v == self.semi.quotient_dim for v in growth)


def nk0_crosscheck(square: ResolutionSquare, degree_cutoff: int = 6) -> Nk0Report:
    """Pic(A[s])/Pic(A) growth against dim(A^+/A), per s-degree."""
    return Nk0Report(pic_conductor(square, 1, degree_cutoff), seminormalization(square))
