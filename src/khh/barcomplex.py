"""Normalized bar complex slices: bases, b, Connes B, shuffle products,
and Connes' cyclic complex.

A chain in degree n is a QQ-combination of tensors m0[m1|...|mn] whose
entries are normal-form monomials, entries in positions >= 1 of positive
weight.  Everything is sliced by total weight, where each slice is finite
because the algebra is connected with positive generator weights.

The order of a slice basis is a contract: kernel vectors, pinned
representatives and the report bytes all read positions in it.  Tensors
are sorted by the slot weights of m1..mn, each slot by (total weight,
weight vector), then by the head's position in the weight basis of the
weight left over, then by each entry's position in its own weight basis.
`basis` builds this order in one pass over compositions of the weight into
bar slots.  Their slot trees, like the normal-form products of monomial
pairs, read neither the weight asked nor the convention, so every context
of one algebra shares them, between its slices and with the other
contexts, for as long as the algebra lives.

b is defined once, by one kernel, `_b_into`: it writes the faces of each
source tensor straight into the target rows, reading the shared product
table and the target index inline, and a face that recurs in one column
adds up there.  `b_matrix` runs it over a slice basis into the slice's
int rows, and `b_chain` over the tensors of a chain, weight by weight,
scaling each column by its tensor's coefficient.  The reversed and
corrupt conventions go through the same kernel.

Connes' complex C^lambda_n is the quotient of the positive-weight tensors
(head included) by the signed rotation t = (-1)^n rotation, with the b
that the bar complex induces on it.  A slice keeps the lexicographically
least rotation of each orbit as its basis vector, in basis order.  Each
rotation costs the sign (-1)^n, so the member of an orbit that is its
least rotation rotated by k is (-1)^{nk} times that representative; an
orbit of period L with n*L odd is fixed by a rotation of sign -1, is zero
in the quotient and has no basis vector.  `cyclic_index` walks each orbit
once, from its first member in basis order.

Every representative is a bar basis tensor with a positive head, and b of
such a tensor has only positive-head terms.  So C^lambda's b is the bar b
folded: its columns restricted to the representatives, and each row, at
a target tensor that is sign times a representative, added with that sign
into the representative's row (rows at scalar heads and vanishing orbits
drop out).  `cyclic_b_matrix` reads the bar `b_matrix` this way and never
applies b to a tensor itself.

Sign conventions (the literature's standard ones): b merges leftward with
(-1)^i and wraps with (-1)^n; B rotates with (-1)^{n i} and drops rotations
that put a scalar inside the bar; shuffles carry the permutation sign of
the interleave.  A Convention object can flip or drop the wrap term (the
corrupt negative controls) or conjugate everything by tensor reversal (the
transpose variant bracketed by the cusp cycle search).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from weakref import WeakKeyDictionary

from .rationals import QQ, add_term
from .linalg import SparseMatrix
from .errors import CompositionNonzeroError, ParseError, PreconditionError, SanityError
from .algebra import GradedAlgebra, slice_memo, vec_add, vec_leq, vec_sub, vec_total
from . import hodge


@dataclass(frozen=True)
class Convention:
    """Sign/variant switches; `corrupt` ones exist as negative controls."""

    name: str = "standard"
    wrap: int = 1  # the sign of b's wrap term: 1, 0 (dropped) or -1 (flipped)
    reverse_tensors: bool = False

    @property
    def corrupt(self) -> bool:
        """A wrong wrap term: b^2 = 0 fails on some slices."""
        return self.wrap != 1


CONVENTIONS = {
    "standard": Convention(),
    "b-transpose": Convention(name="b-transpose", reverse_tensors=True),
    "corrupt-b-drop-wrap": Convention(name="corrupt-b-drop-wrap", wrap=0),
    "corrupt-b-wrap-flip": Convention(name="corrupt-b-wrap-flip", wrap=-1),
}


def convention(name: str) -> Convention:
    try:
        return CONVENTIONS[name]
    except KeyError:
        raise PreconditionError(
            f"unknown convention {name!r}; choose from {sorted(CONVENTIONS)}"
        ) from None


class BarChain:
    """An exact-rational combination of normalized bar tensors of one
    degree; its tensors may differ in weight (`weight` asks for one)."""

    __slots__ = ("algebra", "degree", "terms")

    def __init__(self, algebra: GradedAlgebra, degree: int, terms=None):
        self.algebra = algebra
        self.degree = degree
        self.terms = {}
        unit = (0,) * algebra.ngens
        if terms:
            for tensor, c in terms.items() if isinstance(terms, dict) else terms:
                c = QQ(c)
                if not c:
                    continue
                if len(tensor) != degree + 1:
                    raise ValueError("tensor length does not match degree")
                if any(m == unit for m in tensor[1:]):
                    continue  # normalized complex: scalars inside the bar vanish
                add_term(self.terms, tensor, c)

    def is_zero(self):
        return not self.terms

    def by_weight(self) -> dict:
        """The chain's tensors grouped by weight vector, {weight: [tensor]}."""
        alg = self.algebra
        groups = {}
        for tensor in self.terms:
            w = alg.zero_weight
            for m in tensor:
                w = vec_add(w, alg.mono_weight(m))
            groups.setdefault(w, []).append(tensor)
        return groups

    def weight(self):
        """Common weight vector of all tensors (None for the zero chain)."""
        groups = self.by_weight()
        if len(groups) > 1:
            raise PreconditionError("chain is not weight-homogeneous")
        return next(iter(groups), None)

    def __eq__(self, other):
        return (
            isinstance(other, BarChain)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def vector(self, index):
        """Sparse coordinates w.r.t. a slice index {tensor: position}."""
        return {index[t]: c for t, c in self.terms.items()}

    def __repr__(self):
        return f"BarChain({chain_str(self)})"


def chain_str(chain: BarChain) -> str:
    if not chain.terms:
        return "0"
    alg = chain.algebra
    bits = []
    for tensor in sorted(chain.terms, key=lambda t: tuple(alg.order_key(m) for m in t)):
        c = chain.terms[tensor]
        head = alg.mono_str(tensor[0])
        bar = "[" + "|".join(alg.mono_str(m) for m in tensor[1:]) + "]" if len(tensor) > 1 else ""
        from .rationals import qq_str

        coef = "" if c == 1 else ("-" if c == -1 else qq_str(c) + "*")
        bits.append(f"{coef}{head}{bar}" if head != "1" or not bar else f"{coef}{bar}")
    return " + ".join(bits).replace("+ -", "- ")


def parse_chain(algebra: GradedAlgebra, text: str, degree=None) -> BarChain:
    """Parse chains like ``2*x[y] + 3*y[x]`` or ``[y|y] - x[x|x] - [x^2|x]``."""
    from .algebra import parse_poly

    terms = {}
    deg = degree
    pos = 0
    text = text.strip()
    while pos < len(text):
        sign = QQ(1)
        while pos < len(text) and text[pos] in "+- ":
            if text[pos] == "-":
                sign = -sign
            pos += 1
        end = pos
        depth = 0
        while end < len(text):
            ch = text[end]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch in "+-" and depth == 0:
                break
            end += 1
        piece = text[pos:end].strip()
        pos = end
        if not piece:
            raise ParseError("empty chain term")
        if "[" in piece:
            headtxt, rest = piece.split("[", 1)
            if not rest.endswith("]"):
                raise ParseError(f"unclosed bar bracket in {piece!r}")
            entries = rest[:-1].split("|")
        else:
            headtxt, entries = piece, []
        headtxt = headtxt.strip().rstrip("*").strip() or "1"
        head = parse_poly(headtxt, algebra.gens)
        tensor_entries = []
        for ent in entries:
            p = algebra.nf(parse_poly(ent.strip(), algebra.gens))
            if len(p) != 1 or next(iter(p.values())) != 1:
                raise ParseError(f"bar entry {ent!r} must be a monic monomial")
            tensor_entries.append(next(iter(p)))
        if deg is None:
            deg = len(entries)
        elif deg != len(entries):
            raise ParseError("mixed degrees in chain")
        for hm, hc in algebra.nf(head).items():
            add_term(terms, (hm, *tensor_entries), sign * hc)
    return BarChain(algebra, deg if deg is not None else 0, terms)


# the convention-independent tables of each live algebra
_ALGEBRA_TABLES = WeakKeyDictionary()


class SliceContext:
    """Slice bases and differential matrices of one algebra under one
    convention, each built once: every per-slice method is a `slice_memo`
    entry of the context's one `_memo`.

    It also owns identity verification: nothing else multiplies b or B
    matrices.  `verify` checks b^2 = 0, B^2 = 0, bB + Bb = 0 or b^2 = 0 on
    Connes' complex on one slice exactly and remembers the outcome, so every
    consumer of a slice (HH and HC dimensions, quotient spaces, the test
    grids) pays for each product once.
    """

    def __init__(self, algebra: GradedAlgebra, conv: Convention | str = "standard"):
        self.algebra = algebra
        self.conv = convention(conv) if isinstance(conv, str) else conv
        self._memo = {}  # the slice_memo entries
        self._positive = {}  # w -> [(total, v, weight basis of v)], positive v <= w, sorted
        # (a, b) -> `_product(a, b)` and (k, remaining) -> the slot tree of
        # `basis`, shared by every context of the algebra (module docstring)
        self._products, self._slot_trees = _ALGEBRA_TABLES.setdefault(algebra, ({}, {}))

    # -- bases --------------------------------------------------------

    @slice_memo
    def basis(self, n: int, w) -> tuple:
        alg = self.algebra
        out = []
        if n >= 0:
            positive = self._positive.get(w)
            if positive is None:
                positive = self._positive[w] = sorted(
                    (vec_total(v), v, alg.weight_basis(v))
                    for v in alg.weight_vectors_upto(w)
                    if vec_total(v) > 0
                )
            trees = self._slot_trees

            def slots(k, remaining):
                """The ways to fill k bar slots within `remaining`, as a tree
                shared between branches, slices and contexts: the head's
                weight basis at k = 0 (the head takes the weight left over,
                possibly zero), else [(weight basis of v, slots(k - 1,
                remaining - v))] over the slot weights v in basis order,
                without empty branches.  It depends on (k, remaining) alone:
                the `positive` of every weight w >= remaining lists the same
                slot weights v <= remaining, in the same order."""
                found = trees.get((k, remaining))
                if found is None:
                    if k == 0:
                        found = alg.weight_basis(remaining)
                    else:
                        found = []
                        room = vec_total(remaining)
                        for total, v, entries in positive:
                            if total > room:
                                break
                            if vec_leq(v, remaining):
                                rest = slots(k - 1, vec_sub(remaining, v))
                                if rest:
                                    found.append((entries, rest))
                    trees[(k, remaining)] = found
                return found

            def walk(node, chosen):
                if len(chosen) == n:
                    out.extend(product(node, *chosen))  # head, then m_1 .. m_n
                else:
                    for entries, rest in node:
                        walk(rest, chosen + (entries,))

            walk(slots(n, w), ())
        return tuple(out)

    @slice_memo
    def index(self, n: int, w) -> dict:
        return {t: i for i, t in enumerate(self.basis(n, w))}

    def dim(self, n: int, w) -> int:
        return len(self.basis(n, w))

    # -- differentials on single tensors --------------------------------

    def _reverse(self, tensor):
        return (tensor[0], *reversed(tensor[1:]))

    def _product(self, a, b):
        """nf(a*b) as ((monomial, coeff), ...); integral coefficients are ints."""
        key = (a, b)
        cached = self._products.get(key)
        if cached is None:
            cached = self._products[key] = tuple(
                (m, c.numerator if c.denominator == 1 else c)
                for m, c in self.algebra.mono_mul(a, b).items()
            )
        return cached

    def _b_into(self, rows, sources, n: int, w):
        """Add b of each degree-n, weight-w tensor sources[j] into column j
        of rows: a face term lands in the row of its position in
        `basis(n - 1, w)`, and a sum that cancels leaves no entry.  The one
        definition of b (module docstring); a face outside the target basis
        raises SanityError.
        """
        conv = self.conv
        index = self._face_index(n - 1, w)
        if conv.reverse_tensors:
            reverse = self._reverse
            sources = [reverse(t) for t in sources]
        products, product = self._products, self._product
        wrap = conv.wrap
        for j, tensor in enumerate(sources):
            # face i < n merges entries i and i + 1 with sign (-1)^i; face
            # n, for n >= 1, wraps the last entry onto the head, (-1)^n
            for i in range(n + 1 if wrap and n else n):
                if i < n:
                    a, b = tensor[i], tensor[i + 1]
                    before, after = tensor[:i], tensor[i + 2 :]
                    negate = i & 1
                else:
                    a, b = tensor[n], tensor[0]
                    before, after = (), tensor[1:n]
                    negate = (n & 1) != (wrap < 0)
                terms = products.get((a, b))
                if terms is None:
                    terms = product(a, b)
                for m, c in terms:
                    t = before + (m,) + after
                    try:
                        row = rows[index[t]]
                    except KeyError:
                        raise SanityError(
                            f"column {j}: face {t!r} lies outside the target basis"
                        ) from None
                    add_term(row, j, -c if negate else c)

    @slice_memo
    def _face_index(self, n: int, w) -> dict:
        """The index b's kernel looks its faces up in: `index(n, w)`, keyed
        by the reversed tensors where b is conjugated by the reversal (the
        kernel then runs on reversed sources)."""
        index = self.index(n, w)
        if not self.conv.reverse_tensors:
            return index
        reverse = self._reverse
        return {reverse(t): i for t, i in index.items()}

    def B_tensor(self, tensor):
        if self.conv.reverse_tensors:
            flipped = self._B_tensor_std(self._reverse(tensor))
            return {self._reverse(t): c for t, c in flipped.items()}
        return self._B_tensor_std(tensor)

    def _B_tensor_std(self, tensor):
        alg = self.algebra
        n = len(tensor) - 1
        unit = (0,) * alg.ngens
        out = {}
        cyc = tensor
        for i in range(n + 1):
            rotated = cyc[i:] + cyc[:i]
            if any(m == unit for m in rotated):
                continue  # the old head is a scalar here: dies in the normalized complex
            sign = -1 if (n * i) % 2 else 1
            add_term(out, (unit, *rotated), sign)
        return out

    # -- chain-level operations ------------------------------------------

    def b_chain(self, chain: BarChain) -> BarChain:
        """b of a chain, weight by weight: `_b_into` over its tensors of each
        weight, each face scaled by its tensor's coefficient."""
        n, out = chain.degree, {}
        for w, tensors in chain.by_weight().items():
            basis = self.basis(n - 1, w)
            rows = [{} for _ in basis]
            self._b_into(rows, tensors, n, w)
            for t, row in zip(basis, rows):
                for j, v in row.items():
                    add_term(out, t, chain.terms[tensors[j]] * v)
        return BarChain(self.algebra, n - 1, out)

    def shuffle(self, left: BarChain, right: BarChain) -> BarChain:
        """Shuffle product: graded commutative, b acts as a derivation."""
        if left.algebra is not right.algebra:
            raise ValueError("different algebras")
        alg = left.algebra
        p, q = left.degree, right.degree
        out = {}
        for lt, lc in left.terms.items():
            xs = lt[1:]
            for rt, rc in right.terms.items():
                ys = rt[1:]
                head = alg.mono_mul(lt[0], rt[0])
                base = lc * rc
                for positions in combinations(range(p + q), p):
                    inv = sum(s - k for k, s in enumerate(positions))
                    sign = -1 if inv % 2 else 1
                    entries = [None] * (p + q)
                    for k, s in enumerate(positions):
                        entries[s] = xs[k]
                    it = iter(ys)
                    for s in range(p + q):
                        if entries[s] is None:
                            entries[s] = next(it)
                    coeff = base * sign
                    for hm, hc in head.items():
                        add_term(out, (hm, *entries), coeff * hc)
        return BarChain(alg, p + q, out)

    def shuffle_power(self, chain: BarChain, k: int) -> BarChain:
        out = BarChain(self.algebra, 0, {((0,) * self.algebra.ngens,): QQ(1)})
        for _ in range(k):
            out = self.shuffle(out, chain)
        return out

    # -- matrices ----------------------------------------------------------

    @slice_memo
    def b_matrix(self, n: int, w) -> SparseMatrix:
        sources = self.basis(n, w)
        rows = [{} for _ in self.basis(n - 1, w)]
        self._b_into(rows, sources, n, w)
        return SparseMatrix._from_rowdata(len(rows), len(sources), rows)

    @slice_memo
    def idempotent_matrix(self, n: int, w, i: int) -> SparseMatrix:
        """e_n^(i) on the (n, w) slice (1 <= i <= n), built once per context."""
        return hodge.idempotent_matrix(self, n, w, i)

    @slice_memo
    def B_matrix(self, n: int, w) -> SparseMatrix:
        dst_index = self.index(n + 1, w)
        return SparseMatrix.from_images(len(dst_index), self.basis(n, w), self.B_tensor, dst_index)

    # -- Connes' cyclic complex ---------------------------------------------

    @staticmethod
    def _orbit_signs(tensor):
        """The rotation orbit of a tensor in C^lambda as (members, signs):
        members[0] is the least rotation and members[k] = signs[k] *
        members[0], or signs is None where the orbit is zero there.

        members[k] is the least rotation rotated by k, which costs
        (-1)^{nk}; an orbit of period L whose n*L is odd is fixed by a
        rotation of sign -1 and vanishes.
        """
        n = len(tensor) - 1
        rotations = [tensor[k:] + tensor[:k] for k in range(n + 1)]
        rotations.append(tensor)  # rotation n + 1 closes every orbit
        period = rotations.index(tensor, 1)
        k0 = min(range(period), key=rotations.__getitem__)
        members = rotations[k0:period] + rotations[:k0]
        if n * period % 2:
            return members, None
        # n odd leaves L even, so the signs alternate through the orbit
        return members, [1, -1] * (period // 2) if n % 2 else [1] * period

    def cyclic_index(self, n: int, w) -> dict:
        """{tensor: (basis position, sign) or None} over C^lambda_n at weight w.

        Covers every positive-head tensor of `basis(n, w)`; None marks the
        tensors of vanishing orbits.
        """
        return self._cyclic(n, w)[0]

    def cyclic_basis(self, n: int, w) -> tuple:
        """Orbit representatives of C^lambda_n at weight w, in basis order."""
        return self._cyclic(n, w)[1]

    @slice_memo
    def _cyclic(self, n: int, w) -> tuple:
        """(cyclic_index, cyclic_basis, the representatives' positions in
        `basis(n, w)`) of C^lambda_n at weight w.

        Each orbit is walked once, when its first member in basis order
        comes up, and its representative takes its place when the walk
        reaches it; under reversed tensors the rotation is conjugated by
        the reversal.
        """
        unit = (0,) * self.algebra.ngens
        flip = self._reverse if self.conv.reverse_tensors else None
        unseen = object()
        index = {}  # tensor -> its orbit (members, signs) during the walk, or None
        live, columns = [], []  # live orbits, by their representatives' basis positions
        for position, tensor in enumerate(self.basis(n, w)):
            if tensor[0] == unit:
                continue
            orbit = index.get(tensor, unseen)
            if orbit is unseen:
                members, signs = self._orbit_signs(flip(tensor) if flip else tensor)
                if flip:
                    members = [flip(m) for m in members]
                orbit = None if signs is None else (members, signs)
                index.update(dict.fromkeys(members, orbit))
            if orbit is not None and orbit[0][0] == tensor:
                live.append(orbit)
                columns.append(position)
        for i, (members, signs) in enumerate(live):
            index.update(zip(members, [(i, s) for s in signs]))
        return index, tuple(members[0] for members, _ in live), columns

    @slice_memo
    def cyclic_b_matrix(self, n: int, w) -> SparseMatrix:
        """b : C^lambda_n -> C^lambda_{n-1} at weight w, folded from the bar
        b_n (see the module docstring)."""
        _, reps, positions = self._cyclic(n, w)
        bar = self.b_matrix(n, w)
        column = [None] * bar.cols  # bar column -> cyclic column
        for j, position in enumerate(positions):
            column[position] = j
        target = self.cyclic_index(n - 1, w)
        rows = [{} for _ in self.cyclic_basis(n - 1, w)]
        for tensor, bar_row in zip(self.basis(n - 1, w), bar._rowdata):
            hit = target.get(tensor) if bar_row else None
            if hit is None:
                continue
            r, sign = hit
            row = rows[r]
            for j, v in bar_row.items():
                c = column[j]
                if c is not None:
                    add_term(row, c, sign * v)
        return SparseMatrix._of_rows(len(rows), len(reps), rows, bar.den)

    # -- identity verification --------------------------------------------

    @slice_memo
    def holds(self, identity: str, n: int, w) -> bool:
        """Does one identity hold on the (n, w) slice?  Checked exactly, once
        per context.

        "b.b" is b_n b_{n+1} = 0, "B.B" is B_{n+1} B_n = 0 and "b.B + B.b"
        is b_{n+1} B_n + B_{n-1} b_n = 0, all at C_n in weight w; "cyclic
        b.b" is b_n b_{n+1} = 0 on Connes' complex.  A term through a
        negative degree is an empty matrix and vanishes.
        """
        b, B = self.b_matrix, self.B_matrix
        if identity == "b.b":
            terms = [(b(n, w), b(n + 1, w))]
        elif identity == "B.B":
            terms = [(B(n + 1, w), B(n, w))]
        elif identity == "b.B + B.b":
            terms = [(b(n + 1, w), B(n, w)), (B(n - 1, w), b(n, w))]
        elif identity == "cyclic b.b":
            cb = self.cyclic_b_matrix
            terms = [(cb(n, w), cb(n + 1, w))]
        else:
            raise ValueError(f"unknown identity {identity!r}")
        return self._products_cancel(terms)

    def verify(self, identity: str, n: int, w):
        """`holds`, raising CompositionNonzeroError, every time it is asked,
        where the identity fails."""
        w = self.algebra._coerce_weight(w)
        if not self.holds(identity, n, w):
            raise CompositionNonzeroError(
                f"{identity} != 0 at algebra {self.algebra.name}, slice (n={n}, w={w})"
            )

    @staticmethod
    def _products_cancel(terms) -> bool:
        """Is the sum of the products f @ g over terms zero?

        A term with a zero factor (an empty slice, or b_1 of a commutative
        algebra) contributes nothing and is not multiplied out.
        """
        total = None
        for f, g in terms:
            if f.is_zero() or g.is_zero():
                continue
            product = f @ g
            total = product if total is None else total + product
        return total is None or total.is_zero()

    def in_boundary(self, chain: BarChain) -> bool:
        w = chain.weight()
        if w is None:
            return True
        vec = chain.vector(self.index(chain.degree, w))
        return self.b_matrix(chain.degree + 1, w).column_echelon().contains(vec)
