"""Differential forms of presented graded algebras.

Omega^p is presented as the free module on dg_{i1} ^ ... ^ dg_{ip} over
the algebra, modulo d(relations) wedged against (p-1)-forms; everything is
sliced by weight and handled by exact linear algebra on the presentation.
The antisymmetrization map into the bar slice realizes the smooth-case
comparison, and the kernel of Omega^p(A) -> Omega^p(Atil) measures the
torsion forms a normalization kills.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .rationals import QQ, add_term
from .linalg import SparseMatrix, QuotientSpace
from .errors import PreconditionError
from .algebra import GradedAlgebra, GradedHom, slice_memo, vec_add, vec_total


class DifferentialForms:
    """Weight slices of Omega^p for one algebra, with exact class coords."""

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self._memo = {}  # the slice_memo entries

    def wedges(self, p: int):
        return tuple(combinations(range(self.algebra.ngens), p))

    def wedge_weight(self, wedge) -> tuple:
        w = self.algebra.zero_weight
        for i in wedge:
            w = vec_add(w, self.algebra.weights[i])
        return w

    def partials(self, rel):
        """d(rel) as {generator index: polynomial coefficient of dg_i}."""
        alg = self.algebra
        out = {}
        for m, c in rel.items():
            for i, e in enumerate(m):
                if e:
                    lowered = list(m)
                    lowered[i] -= 1
                    add_term(out.setdefault(i, {}), tuple(lowered), c * e)
        return {i: alg.nf(p) for i, p in out.items() if p}

    @slice_memo
    def slice(self, p: int, w) -> "OmegaSlice":
        return OmegaSlice(self, p, w)

    def dim(self, p: int, w) -> int:
        if p < 0:
            return 0
        return self.slice(p, w).dim


class OmegaSlice:
    """The weight-w component of Omega^p: free basis modulo relation rows."""

    def __init__(self, forms: DifferentialForms, p: int, w):
        self.forms = forms
        self.p = p
        self.w = w
        alg = forms.algebra
        basis = []
        for wedge in forms.wedges(p):
            ww = forms.wedge_weight(wedge)
            rest = tuple(a - b for a, b in zip(w, ww))
            if any(x < 0 for x in rest):
                continue
            for m in alg.weight_basis(rest):
                basis.append((m, wedge))
        self.free_basis = tuple(basis)
        self.index = {b: i for i, b in enumerate(self.free_basis)}
        nfree = len(self.free_basis)
        relations = SparseMatrix.from_images(
            nfree, list(self._relation_sources()), self._relation_image, self.index
        )
        self.space = QuotientSpace(relations, SparseMatrix.zero(0, nfree))
        self.dim = self.space.dim

    def _relation_sources(self):
        """(rel, m, wedge) for every relation form m * d(rel) ^ dg_wedge of weight w."""
        alg = self.forms.algebra
        p, w = self.p, self.w
        if p == 0:
            return
        for rel in alg.reduced_relations():
            rw = alg.poly_weight(rel)
            for wedge in self.forms.wedges(p - 1):
                ww = self.forms.wedge_weight(wedge)
                base = tuple(a - b - c for a, b, c in zip(w, rw, ww))
                if any(x < 0 for x in base):
                    continue
                for m in alg.weight_basis(base):
                    yield rel, m, wedge

    def _relation_image(self, source):
        """m * d(rel) ^ dg_wedge over the free basis keys; each partial
        lands on its own wedge, so no two terms share a key."""
        rel, mono, wedge = source
        alg = self.forms.algebra
        image = {}
        for i, coeff in self.forms.partials(rel).items():
            if i in wedge:
                continue
            bigger = tuple(sorted((i,) + wedge))
            sign = -1 if bigger.index(i) % 2 else 1
            for mm, c in alg.multiply({mono: QQ(1)}, coeff).items():
                image[(mm, bigger)] = sign * c
        return image

    def class_keys(self):
        """The free basis keys (mono, wedge) representing a deterministic
        slice basis."""
        return [self.free_basis[min(rep)] for rep in self.space.reps]

    def class_matrix(self, sources, image):
        """Class coordinates of image(source), a dict over the free basis
        keys, one column per source."""
        free = SparseMatrix.from_images(len(self.free_basis), sources, image, self.index)
        return self.space.matrix_of(free.columns())


def omega_dims(algebra: GradedAlgebra, p: int, w) -> int:
    """dim of the weight-w component of Omega^p over QQ."""
    if p < 0:
        raise PreconditionError("p >= 0 required")
    return DifferentialForms(algebra).dim(p, w)


def de_rham_matrix(forms: DifferentialForms, p: int, w) -> SparseMatrix:
    """d: Omega^p -> Omega^{p+1} on class coordinates at weight w."""
    alg = forms.algebra
    src = forms.slice(p, w)

    def d(key):
        # each generator i lands on its own wedge, so no two terms share a key
        mono, wedge = key
        image = {}
        for i, e in enumerate(mono):
            if not e or i in wedge:
                continue
            lowered = list(mono)
            lowered[i] -= 1
            bigger = tuple(sorted((i,) + wedge))
            sign = -e if bigger.index(i) % 2 else e
            for mm, c in alg.nf_mono(tuple(lowered)).items():
                image[(mm, bigger)] = sign * c
        return image

    return forms.slice(p + 1, w).class_matrix(src.class_keys(), d)


def hkr_matrix(algebra: GradedAlgebra, n: int, w, ctx) -> SparseMatrix:
    """Antisymmetrization Omega^n -> C_n on the (n, w) slice.

    a0 dg_{i1}^...^dg_{in} maps to (1/n!) sum_sigma sgn(sigma)
    a0[g_{i sigma(1)}|...|g_{i sigma(n)}]; the image consists of cycles and
    the 1/n! makes the map split the top Hodge idempotent.
    """
    from .hodge import _perms, _sign

    w = algebra._coerce_weight(w)
    src = DifferentialForms(algebra).slice(n, w)
    index = ctx.index(n, w)
    scale = QQ(1, factorial(n))

    def antisymmetrize(key):
        # the wedge's generators are distinct, so each permutation is its own tensor
        mono, wedge = key
        gens = [next(iter(algebra.gen_poly(i))) for i in wedge]
        return {
            (mono, *(gens[k] for k in perm)): scale * _sign(perm) for perm in _perms(n)
        }

    return SparseMatrix.from_images(len(index), src.class_keys(), antisymmetrize, index)


def hkr_class_rank(algebra: GradedAlgebra, n: int, w, engine) -> int:
    """Rank of the antisymmetrization map into HH_n classes at weight w."""
    w = algebra._coerce_weight(w)
    mat = hkr_matrix(algebra, n, w, engine.ctx)
    return engine.hh_space(n, w).matrix_of(mat.columns()).rank()


def torsion_dims(hom: GradedHom, p: int, w) -> int:
    """dim of the weight-w kernel of Omega^p(A) -> Omega^p(Atil)."""
    mat = omega_hom_matrix(hom, p, w)
    return mat.cols - mat.rank()


def omega_hom_matrix(hom: GradedHom, p: int, w) -> SparseMatrix:
    """Induced map on Omega^p class coordinates at weight w."""
    A, B = hom.domain, hom.codomain
    w = A._coerce_weight(w)
    fa = DifferentialForms(A)
    fb = DifferentialForms(B)
    # dg_i maps to sum_j (partial phi(g_i) / partial h_j) dh_j
    gen_images = [fb.partials(hom.images[i]) for i in range(A.ngens)]

    def image(key):
        mono, wedge = key
        head = hom.apply_mono(mono)
        out = {}
        for sign, hwedge, coeffpoly in _wedge_images(B, gen_images, wedge):
            for mm, c in B.multiply(head, coeffpoly).items():
                add_term(out, (mm, hwedge), sign * c)
        return out

    return fb.slice(p, w).class_matrix(fa.slice(p, w).class_keys(), image)


def _wedge_images(codomain, gen_images, wedge):
    """Expand the image of dg_{i1}^...^dg_{ip} over target wedges with signs."""
    from itertools import product as _product

    pools = [list(gen_images[i].items()) for i in wedge]
    for combo in _product(*pools) if pools else [()]:
        js = [j for j, _ in combo]
        if len(set(js)) != len(js):
            continue
        inv = sum(
            1
            for a in range(len(js))
            for b in range(a + 1, len(js))
            if js[a] > js[b]
        )
        sign = -1 if inv % 2 else 1
        poly = codomain.one()
        for _, coeff in combo:
            poly = codomain.multiply(poly, coeff)
        yield sign, tuple(sorted(js)), poly


@dataclass
class SmoothnessVerdict:
    status: str  # SMOOTH | SINGULAR | INDETERMINATE
    non_reduced: bool = False
    zero_divisors: bool = False
    note: str = ""


def jacobian_smooth(algebra: GradedAlgebra) -> SmoothnessVerdict:
    """Jacobian criterion for a connected graded presentation.

    A free presentation is smooth.  Otherwise all Jacobian entries are
    normal-formed: for a connected graded algebra the Jacobian ideal is the
    unit ideal only if some entry has a constant term (an eliminable
    generator, reported INDETERMINATE as a non-minimal presentation); with
    every entry in the graded maximal ideal the origin is singular.  The
    relations are the complete reduced basis.  A singular verdict reports
    whether some generator is nilpotent, read exactly from the leads of an
    order that puts that generator first (`GradedAlgebra.is_nilpotent`).
    """
    relations = algebra.reduced_relations()
    if not relations:
        return SmoothnessVerdict("SMOOTH")
    forms = DifferentialForms(algebra)
    for rel in relations:
        for i, coeff in forms.partials(rel).items():
            if not coeff:
                continue
            w = algebra.poly_weight(coeff)
            if w is not None and vec_total(w) == 0:
                return SmoothnessVerdict(
                    "INDETERMINATE",
                    note="a Jacobian entry is a unit: presentation has an "
                    "eliminable generator",
                )
    non_reduced = any(algebra.is_nilpotent(algebra.gen_poly(i)) for i in range(algebra.ngens))
    return SmoothnessVerdict(
        "SINGULAR",
        non_reduced=non_reduced,
        zero_divisors=algebra.zero_divisor_probe() is not None,
        note="nilpotent generator" if non_reduced else "Jacobian ideal is graded-proper",
    )
