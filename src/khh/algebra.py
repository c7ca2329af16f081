"""Finitely presented connected graded commutative algebras over QQ.

Generators carry positive weights (internally small vectors of naturals, so
a polynomial extension can track its extra degree) and relations are
weight-homogeneous.  Construction runs Buchberger's algorithm until no
S-pair is left, so the basis is complete in every weight: normal forms,
weight bases and every invariant below are read from it exactly.

Monomials are plain exponent tuples, polynomials are dicts monomial -> QQ.
The monomial order is graded reverse lexicographic (weighted degree first,
later generators more significant), which fixes bases and representatives
across runs.

Dimension lemma.  The standard monomials (those no lead divides) are a
basis of A in every weight, so A and QQ[x]/in(I) have the same Hilbert
series and hence the same Krull dimension.  The zero set of a monomial
ideal is the union of the coordinate subspaces spanned by sets S of
generators that contain no lead's support, so dim A is the size of the
largest such S (Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 9, sections 1-3).  No grading enters the count.

Nilpotency lemma.  The first generator z is the least significant: on a
homogeneous polynomial every term without z is larger than every term
with it.  So a homogeneous polynomial whose lead z divides is divisible
by z, dividing each basis element by its largest power of z gives a
Groebner basis of the saturation I : z^oo, and z is nilpotent (I : z^oo
is the unit ideal) exactly when some lead is a pure power of z (Bayer and
Stillman, "A criterion for detecting m-regularity", Invent. Math. 87,
1987).  `is_nilpotent` tests any homogeneous p this way, as z in
A[z]/(z - p).
"""

from __future__ import annotations

import functools
import heapq
import inspect
import re
from itertools import combinations

from .rationals import QQ, add_term, qq, qq_str
from .errors import (
    ParseError,
    InhomogeneousRelationError,
    ZeroWeightGeneratorError,
    WeightMismatchError,
    RelationNotKilledError,
    PreconditionError,
)

Mono = tuple  # exponent tuple, one slot per generator
WeightVec = tuple  # small vector of non-negative ints, not all zero


def vec_add(a: WeightVec, b: WeightVec) -> WeightVec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: WeightVec, b: WeightVec) -> WeightVec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(k: int, a: WeightVec) -> WeightVec:
    return tuple(k * x for x in a)


def vec_leq(a: WeightVec, b: WeightVec) -> bool:
    return all(x <= y for x, y in zip(a, b))


def vec_total(a: WeightVec) -> int:
    return sum(a)


def mono_mul_raw(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


class GradedAlgebra:
    """A connected graded commutative QQ-algebra with a normal-form engine.

    Immutable once built: the constructor completes the Groebner basis, and
    only the normal-form and weight-basis caches grow afterwards.  A
    relation is a dict monomial -> coefficient or its (monomial, coefficient)
    terms.  `presentation` is (name, gens, weights, relations), each relation
    the sorted tuple of its terms, and `GradedAlgebra(*a.presentation)`
    rebuilds a.
    """

    def __init__(self, name, gens, weights, relations):
        self.name = name
        self.gens = tuple(gens)
        self.weight_rank = rank = len(weights[0]) if weights else 1
        self.weights = tuple(tuple(w) for w in weights)
        for g, w in zip(self.gens, self.weights):
            if len(w) != rank:
                raise ValueError(f"weight rank mismatch on generator {g}")
            if vec_total(w) <= 0 or any(x < 0 for x in w):
                raise ZeroWeightGeneratorError(f"generator {g} must have positive weight")
        self.ngens = len(self.gens)
        self.zero_weight = (0,) * rank
        self._key_cache = {}
        self.relations = tuple({Mono(m): QQ(c) for m, c in dict(rel).items()} for rel in relations)
        # hashable and picklable: the worker pool ships it, the slice cache
        # keys cells by it and the corpus compares algebras by it
        rels = tuple(tuple(sorted(rel.items())) for rel in self.relations)
        self.presentation = (self.name, self.gens, self.weights, rels)
        for rel in self.relations:
            w = self._weight_of_poly(rel, check=True)
            if w is not None and vec_total(w) == 0:
                raise InhomogeneousRelationError(
                    f"relation {self.poly_str(rel)} has weight 0"
                )
        self._gb = []  # monic polys with pairwise non-divisible leads
        self._leads = []  # the lead of each _gb entry, kept in step with it
        self._pairs = []  # heap of (lcm scalar weight, i, j)
        for rel in self.relations:
            self._gb_insert(rel)
        self._complete()
        kept = [i for i, g in enumerate(self._gb) if g is not None]
        self._gb = [self._gb[i] for i in kept]
        self._leads = tuple(self._leads[i] for i in kept)
        self._nf_mono_cache = {}
        self._basis_cache = {}

    # -- monomial order -----------------------------------------------

    def mono_weight(self, m: Mono) -> WeightVec:
        w = [0] * self.weight_rank
        for e, gw in zip(m, self.weights):
            if e:
                for i, x in enumerate(gw):
                    w[i] += e * x
        return tuple(w)

    def order_key(self, m: Mono):
        # graded reverse lexicographic with later generators more significant,
        # ascending; chosen so y^2 - x^3 style relations rewrite the last
        # generator into the earlier ones
        key = self._key_cache.get(m)
        if key is None:
            key = (vec_total(self.mono_weight(m)),) + tuple(-e for e in m)
            self._key_cache[m] = key
        return key

    def lead(self, p) -> Mono:
        return max(p, key=self.order_key)

    def _weight_of_poly(self, p, check=False) -> WeightVec | None:
        if not p:
            return None
        it = iter(p)
        w = self.mono_weight(next(it))
        if check:
            for m in it:
                if self.mono_weight(m) != w:
                    raise InhomogeneousRelationError(
                        f"polynomial {self.poly_str(p)} mixes weights "
                        f"{w} and {self.mono_weight(m)}"
                    )
        return w

    def poly_weight(self, p) -> WeightVec | None:
        """Weight vector of a homogeneous polynomial (None for 0)."""
        return self._weight_of_poly(p, check=True)

    # -- Buchberger completion -------------------------------------------

    def _complete(self):
        """Reduce S-pairs in ascending lcm weight until none is left."""
        while self._pairs:
            _, i, j = heapq.heappop(self._pairs)
            f, g = self._gb[i], self._gb[j]
            if f is None or g is None:
                continue
            lf, lg = self._leads[i], self._leads[j]
            if all(a == 0 or b == 0 for a, b in zip(lf, lg)):
                continue  # coprime leads: the S-polynomial reduces to zero
            s = self._reduce(self._s_poly(f, lf, g, lg))
            if s:
                self._gb_insert(s)

    @staticmethod
    def _s_poly(f, lf, g, lg):
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        mf = vec_sub(lcm, lf)
        mg = vec_sub(lcm, lg)
        cf, cg = f[lf], g[lg]
        out = {mono_mul_raw(m, mf): cg * c for m, c in f.items()}
        for m, c in g.items():
            add_term(out, mono_mul_raw(m, mg), -(cf * c))
        return out

    def _reduce(self, p):
        """Full reduction against the current basis."""
        out = {}
        work = dict(p)
        basis = list(zip(self._gb, self._leads))
        while work:
            m = self.lead(work)
            c = work.pop(m)
            if not c:
                continue
            for g, lead in basis:
                if g is not None and mono_divides(lead, m):
                    break
            else:
                add_term(out, m, c)
                continue
            shift = vec_sub(m, lead)
            for gm, gc in g.items():
                if gm != lead:
                    add_term(work, mono_mul_raw(gm, shift), -(c * gc))
        return out

    def _gb_insert(self, p):
        stack = [p]
        while stack:
            q = self._reduce(stack.pop())
            if not q:
                continue
            lead_new = self.lead(q)
            c = q[lead_new]
            q = {m: v / c for m, v in q.items()}
            # retire basis elements whose lead the newcomer divides
            for idx in range(len(self._gb)):
                g = self._gb[idx]
                if g is not None and mono_divides(lead_new, self._leads[idx]):
                    self._gb[idx] = None
                    stack.append(g)
            new_index = len(self._gb)
            self._gb.append(q)
            self._leads.append(lead_new)
            for idx in range(new_index):
                if self._gb[idx] is None:
                    continue
                lg = self._leads[idx]
                lcm = tuple(max(a, b) for a, b in zip(lg, lead_new))
                heapq.heappush(
                    self._pairs, (vec_total(self.mono_weight(lcm)), idx, new_index)
                )

    def reduced_relations(self):
        """The reduced Groebner basis of the relation ideal.

        Leads are pairwise non-divisible by construction; tails are reduced
        here so the returned presentation is fully interreduced.
        """
        out = []
        for g, lead in zip(self._gb, self._leads):
            tail = {m: c for m, c in g.items() if m != lead}
            reduced = self._reduce(tail)
            reduced[lead] = g[lead]
            out.append(reduced)
        return out

    # -- normal forms ---------------------------------------------------

    def nf(self, p):
        """Normal form; idempotent, QQ-linear, multiplicative modulo the ideal."""
        return self._reduce(p)

    def nf_mono(self, m: Mono):
        cached = self._nf_mono_cache.get(m)
        if cached is None:
            cached = self.nf({m: QQ(1)})
            self._nf_mono_cache[m] = cached
        return cached

    def multiply(self, p, q):
        """nf(p*q); weight-additive on homogeneous inputs."""
        acc = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                add_term(acc, mono_mul_raw(m1, m2), c1 * c2)
        out = {}
        for m, c in acc.items():
            for rm, rc in self.nf_mono(m).items():
                add_term(out, rm, c * rc)
        return out

    def mono_mul(self, a: Mono, b: Mono):
        """nf of a product of two monomials (hot path, cached per factor pair)."""
        return self.nf_mono(mono_mul_raw(a, b))

    def poly_pow(self, p, k: int):
        out = self.one()
        for _ in range(k):
            out = self.multiply(out, p)
        return out

    def one(self):
        return {(0,) * self.ngens: QQ(1)}

    def gen_poly(self, i: int):
        m = [0] * self.ngens
        m[i] = 1
        return {tuple(m): QQ(1)}

    # -- weight components ----------------------------------------------

    def weight_basis(self, w) -> tuple:
        """Ordered monomial basis of the weight-w component (w int or vector)."""
        # only coerced vectors are stored, so a hit on the raw argument is valid
        # and anything else (ints, lists, invalid vectors) goes through coercion
        cached = self._basis_cache.get(w) if type(w) is tuple else None
        if cached is not None:
            return cached
        wvec = self._coerce_weight(w)
        cached = self._basis_cache.get(wvec)
        if cached is not None:
            return cached
        # a lead can first divide a prefix at its last variable
        leads_at = [[] for _ in range(self.ngens)]
        for lead in self._leads:
            leads_at[max(i for i, x in enumerate(lead) if x)].append(lead)
        out = []
        exps = [0] * self.ngens

        def walk(i, remaining):
            if i == self.ngens:
                if all(x == 0 for x in remaining):
                    out.append(tuple(exps))
                return
            gw = self.weights[i]
            level = leads_at[i]
            e = 0
            while True:
                used = vec_scale(e, gw)
                if not vec_leq(used, remaining):
                    break
                exps[i] = e
                # the standard monomials form an order ideal: a lead that
                # divides this prefix divides every larger e and extension
                if e and level and any(mono_divides(l, exps) for l in level):
                    break
                walk(i + 1, vec_sub(remaining, used))
                e += 1
            exps[i] = 0

        walk(0, wvec)
        out.sort(key=self.order_key)
        result = tuple(out)
        self._basis_cache[wvec] = result
        return result

    def dim(self, w) -> int:
        return len(self.weight_basis(w))

    def _coerce_weight(self, w) -> WeightVec:
        if isinstance(w, int):
            if self.weight_rank != 1:
                raise PreconditionError(
                    f"algebra {self.name} is graded over rank {self.weight_rank}; "
                    "pass a weight vector"
                )
            if w < 0:
                raise PreconditionError("weights are non-negative")
            return (w,)
        w = tuple(w)
        if len(w) != self.weight_rank:
            raise PreconditionError("weight vector rank mismatch")
        if any(x < 0 for x in w):
            raise PreconditionError("weights are non-negative")
        return w

    def weight_vectors_upto(self, bound) -> list:
        """All weight vectors componentwise <= bound with a nonzero component."""
        bvec = self._coerce_weight(bound)
        ranges = [range(b + 1) for b in bvec]
        out = []

        def walk(i, prefix):
            if i == len(ranges):
                w = tuple(prefix)
                if self.dim(w) > 0:
                    out.append(w)
                return
            for x in ranges[i]:
                walk(i + 1, prefix + [x])

        walk(0, [])
        return out

    def krull_dim(self) -> int:
        """Krull dimension: the most generators whose set contains no lead's
        support (the dimension lemma in the module docstring)."""
        supports = [{i for i, e in enumerate(lead) if e} for lead in self._leads]
        for k in range(self.ngens, 0, -1):
            for subset in combinations(range(self.ngens), k):
                if not any(sup.issubset(subset) for sup in supports):
                    return k
        return 0

    def top_weight(self) -> int:
        """The largest weight with a nonzero slice, for a rank-1 graded algebra
        of Krull dimension 0.

        There every generator has a power x_i^e_i among the leads, so the
        standard monomials lie in the box below those powers: the top weight
        is the largest weight up to the box's corner, sum (e_i - 1) w_i, with
        a nonzero slice, and weight 0 always has one.
        """
        if self.krull_dim():
            raise PreconditionError(f"algebra {self.name} is infinite-dimensional")
        corner = sum(
            (min(lead[i] for lead in self._leads if lead[i] == sum(lead)) - 1) * vec_total(gw)
            for i, gw in enumerate(self.weights)
        )
        return next(w for w in range(corner, -1, -1) if self.dim(w))

    # -- nilpotency and zero divisors ---------------------------------------

    def is_nilpotent(self, p) -> bool:
        """Is the homogeneous p nilpotent?  Exact: p is z in A[z]/(z - p),
        z adjoined as the first generator, and the nilpotency lemma in the
        module docstring reads the answer from that algebra's leads."""
        p = self.nf(p)
        w = self._weight_of_poly(p)
        if w is None:
            return True
        if vec_total(w) == 0:
            return False  # a nonzero constant
        relations = [{(0,) + m: c for m, c in g.items()} for g in (*self._gb, p)]
        relations[-1][(1,) + (0,) * self.ngens] = QQ(-1)  # p - z
        extended = GradedAlgebra(self.name, ("z",) + self.gens, (w,) + self.weights, relations)
        return any(not any(lead[1:]) for lead in extended._leads)

    def zero_divisor_probe(self):
        """A pair of nonzero elements multiplying to zero, or None if the
        search over the basis terms finds none."""
        for g in self._gb:
            # binomial/monomial leads give cheap witnesses via factor splitting
            for m in list(g):
                for i in range(self.ngens):
                    if m[i] > 0:
                        a = self.gen_poly(i)
                        rest = list(m)
                        rest[i] -= 1
                        b = self.nf_mono(tuple(rest))
                        if b and not self.multiply(a, b):
                            return (a, b)
        return None

    # -- construction helpers ---------------------------------------------

    def with_polynomial_generator(self, name: str):
        """A[name]: adds a fresh weight-(0,..,0,1) generator on a new grading axis."""
        gens = self.gens + (name,)
        weights = [w + (0,) for w in self.weights]
        weights.append((0,) * self.weight_rank + (1,))
        rels = [{m + (0,): c for m, c in rel.items()} for rel in self.relations]
        return GradedAlgebra(f"{self.name}[{name}]", gens, weights, rels)

    # -- formatting --------------------------------------------------------

    def mono_str(self, m: Mono) -> str:
        parts = []
        for g, e in zip(self.gens, m):
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append(f"{g}^{e}")
        return "*".join(parts) if parts else "1"

    def poly_str(self, p) -> str:
        if not p:
            return "0"
        terms = []
        for m in sorted(p, key=self.order_key, reverse=True):
            c = p[m]
            mono = self.mono_str(m)
            if mono == "1":
                terms.append(qq_str(c))
            elif c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{qq_str(c)}*{mono}")
        s = " + ".join(terms)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"GradedAlgebra({self.name}: {', '.join(self.gens)})"


_MISSING = object()


def slice_memo(method):
    """Memoize a slice method in its object's one `_memo` dict.

    The argument named `w` is coerced through `self.algebra` first, so an
    int weight and its one-vector share an entry and an invalid weight is
    rejected at every memoized entry point.  The key is (method name,
    arguments); arguments are passed positionally.  Only coerced weights
    enter a key, so a weight tuple whose key is stored has been validated:
    a hit on the raw arguments skips the coercion.
    """
    at = list(inspect.signature(method).parameters).index("w") - 1  # after self
    name = method.__name__

    @functools.wraps(method)
    def memoized(self, *args):
        memo = self._memo
        if type(args[at]) is tuple:
            value = memo.get((name, *args), _MISSING)
            if value is not _MISSING:
                return value
        args = (*args[:at], self.algebra._coerce_weight(args[at]), *args[at + 1 :])
        key = (name, *args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = method(self, *args)
        return value

    return memoized


class GradedHom:
    """A weight-preserving algebra map, given by generator images."""

    def __init__(self, domain: GradedAlgebra, codomain: GradedAlgebra, images):
        if len(images) != domain.ngens:
            raise WeightMismatchError("one image per generator required")
        self.domain = domain
        self.codomain = codomain
        self._mono_cache = {}
        self.images = tuple(codomain.nf(img) for img in images)
        for g, w, img in zip(domain.gens, domain.weights, self.images):
            iw = codomain.poly_weight(img)
            if iw is not None and iw != w:
                raise WeightMismatchError(
                    f"image of {g} has weight {iw}, expected {w}"
                )
        for rel in domain.relations:
            if self.apply(rel):
                raise RelationNotKilledError(
                    f"relation {domain.poly_str(rel)} not killed by the map"
                )

    def apply_mono(self, m: Mono):
        cached = self._mono_cache.get(m)
        if cached is None:
            out = self.codomain.one()
            for img, e in zip(self.images, m):
                if e:
                    out = self.codomain.multiply(out, self.codomain.poly_pow(img, e))
            self._mono_cache[m] = cached = out
        return cached

    def apply(self, p):
        out = {}
        for m, c in p.items():
            for rm, rc in self.apply_mono(m).items():
                add_term(out, rm, c * rc)
        return self.codomain.nf(out)


# -- text format -------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<sym>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[\^*+-]))"
)


def parse_poly(text: str, gens, line_no=None, offset=0) -> dict:
    """Parse a polynomial in the algebra grammar: `^` powers, optional `*`.
    The text starts at column offset + 1 of its line; errors name columns
    of the line."""
    gen_index = {g: i for i, g in enumerate(gens)}
    ngens = len(gens)
    pos = 0
    terms = []
    sign = 1
    coeff = None
    exps = None
    seen_factor = False
    dangling = None  # (op, col) of the last operator, until an operand follows it

    def flush():
        nonlocal sign, coeff, exps, seen_factor
        c = qq(1) if coeff is None else coeff
        m = tuple(exps) if exps is not None else (0,) * ngens
        terms.append((m, QQ(sign) * c))
        sign, coeff, exps, seen_factor = 1, None, None, False

    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            at = n - len(text[pos:].lstrip())
            if at == n:
                break
            raise ParseError(f"unexpected character {text[at]!r}", line_no, offset + at + 1)
        col = offset + m.start(m.lastgroup) + 1
        pos = m.end()
        if m.lastgroup == "op":
            op = m.group("op")
            if dangling is not None and dangling[0] == "*":
                raise ParseError(f"{op!r} after '*'", line_no, col)
            if op == "^" or (op == "*" and not (seen_factor or coeff is not None)):
                raise ParseError(f"dangling {op!r}", line_no, col)
            if op in "+-" and (seen_factor or coeff is not None):
                flush()
            if op == "-":
                sign = -sign
            dangling = (op, col)
            continue
        dangling = None
        if m.lastgroup == "num":
            if seen_factor or coeff is not None:
                raise ParseError("coefficient must lead its term", line_no, col)
            try:
                coeff = qq(m.group("num"))
            except ZeroDivisionError:
                raise ParseError("zero denominator", line_no, col) from None
            continue
        sym = m.group("sym")
        idx = gen_index.get(sym)
        if idx is None:
            raise ParseError(f"unknown generator {sym!r}", line_no, col)
        exp = 1
        caret = _TOKEN.match(text, pos)
        if caret and caret.lastgroup == "op" and caret.group("op") == "^":
            pos = caret.end()
            numtok = _TOKEN.match(text, pos)
            if not numtok or numtok.lastgroup != "num" or "/" in numtok.group("num"):
                col = offset + n - len(text[pos:].lstrip()) + 1
                raise ParseError("integer exponent expected after '^'", line_no, col)
            exp = int(numtok.group("num"))
            pos = numtok.end()
        if exps is None:
            exps = [0] * ngens
        exps[idx] += exp
        seen_factor = True
    if dangling:
        raise ParseError(f"dangling {dangling[0]!r}", line_no, dangling[1])
    if seen_factor or coeff is not None:
        flush()
    if not terms:
        raise ParseError("empty polynomial", line_no, offset + 1)
    out = {}
    for m, c in terms:
        add_term(out, m, c)
    return out


def split_blocks(text: str):
    """Split a file into algebra blocks plus trailing directive lines."""
    blocks = []
    extras = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.split(None, 1)[0]
        if head == "algebra":
            current = []
            blocks.append(current)
        if head in ("algebra", "vars", "rel"):
            if current is None:
                raise ParseError(f"{head!r} before any `algebra` line", lineno)
            current.append((lineno, line))
        else:
            extras.append((lineno, line))
    return blocks, extras


def parse_algebra_block(lines) -> GradedAlgebra:
    name = None
    gens = []
    weights = []
    rels_raw = []
    for lineno, line in lines:
        parts = line.split(None, 1)
        head, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if head == "algebra":
            if name is not None:
                raise ParseError("duplicate `algebra` line", lineno)
            if not rest.strip():
                raise ParseError("algebra needs a name", lineno)
            name = rest.strip()
        elif head == "vars":
            for item in rest.split():
                if ":" not in item:
                    raise ParseError(f"expected sym:weight, got {item!r}", lineno)
                sym, wtxt = item.split(":", 1)
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", sym):
                    raise ParseError(f"bad generator name {sym!r}", lineno)
                if sym in gens:
                    raise ParseError(f"repeated generator {sym!r}", lineno)
                try:
                    w = int(wtxt)
                except ValueError:
                    raise ParseError(f"bad weight {wtxt!r}", lineno) from None
                if w <= 0:
                    raise ZeroWeightGeneratorError(
                        f"generator {sym} has non-positive weight {w}", lineno
                    )
                gens.append(sym)
                weights.append((w,))
        elif head == "rel":
            rels_raw.append((lineno, rest, len(line) - len(rest)))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if name is None:
        raise ParseError("missing `algebra` line", lines[0][0] if lines else 1)
    rels = [parse_poly(rest, gens, lineno, offset) for lineno, rest, offset in rels_raw]
    return GradedAlgebra(name, gens, weights, rels)


def parse_algebra(text: str) -> GradedAlgebra:
    """Build an algebra from its text presentation.

    Grammar: `algebra <name>`, then `vars <sym>:<weight> ...`, then any
    number of `rel <polynomial>` lines.  `#` starts a comment.
    """
    blocks, extras = split_blocks(text)
    if extras:
        lineno, line = extras[0]
        raise ParseError(f"unexpected directive {line.split()[0]!r}", lineno)
    if len(blocks) != 1:
        raise ParseError(f"expected exactly one algebra block, found {len(blocks)}")
    return parse_algebra_block(blocks[0])
