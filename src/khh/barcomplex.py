"""Normalized bar complex slices: bases, b, Connes B, shuffle products,
and Connes' cyclic complex.

A chain in degree n is a QQ-combination of tensors m0[m1|...|mn] whose
entries are normal-form monomials, entries in positions >= 1 of positive
weight.  Everything is sliced by total weight, where each slice is finite
because the algebra is connected with positive generator weights.

Connes' complex C^lambda_n is the quotient of the positive-weight tensors
(head included) by the signed rotation t = (-1)^n rotation, with the b
that the bar complex induces on it.  A slice keeps the lexicographically
least rotation of each orbit as its basis vector; an orbit whose
stabilizer acts by -1 is zero in the quotient and has no basis vector.

Sign conventions (the literature's standard ones): b merges leftward with
(-1)^i and wraps with (-1)^n; B rotates with (-1)^{n i} and drops rotations
that put a scalar inside the bar; shuffles carry the permutation sign of
the interleave.  A Convention object can flip or drop the wrap term (the
corrupt negative controls) or conjugate everything by tensor reversal (the
transpose variant bracketed by the cusp cycle search).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .rationals import QQ, ZERO
from .linalg import SparseMatrix
from .errors import CompositionNonzeroError, ParseError, PreconditionError
from .algebra import GradedAlgebra, vec_total, vec_sub, vec_leq
from . import hodge


@dataclass(frozen=True)
class Convention:
    """Sign/variant switches; `corrupt` ones exist as negative controls."""

    name: str = "standard"
    b_drop_wrap: bool = False
    b_wrap_flip: bool = False
    reverse_tensors: bool = False
    twist_sign: int = 1
    corrupt: bool = False


CONVENTIONS = {
    "standard": Convention(),
    "b-transpose": Convention(name="b-transpose", reverse_tensors=True),
    "twist-minus": Convention(name="twist-minus", twist_sign=-1),
    "corrupt-b-drop-wrap": Convention(
        name="corrupt-b-drop-wrap", b_drop_wrap=True, corrupt=True
    ),
    "corrupt-b-wrap-flip": Convention(
        name="corrupt-b-wrap-flip", b_wrap_flip=True, corrupt=True
    ),
}


def convention(name: str) -> Convention:
    try:
        return CONVENTIONS[name]
    except KeyError:
        raise PreconditionError(
            f"unknown convention {name!r}; choose from {sorted(CONVENTIONS)}"
        ) from None


class BarChain:
    """A homogeneous exact-rational combination of normalized bar tensors."""

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
                s = self.terms.get(tensor, ZERO) + c
                if s:
                    self.terms[tensor] = s
                else:
                    self.terms.pop(tensor, None)

    def is_zero(self):
        return not self.terms

    def weight(self):
        """Common weight vector of all tensors (None for the zero chain)."""
        w = None
        for tensor in self.terms:
            tw = self.algebra.zero_weight
            for m in tensor:
                tw = tuple(a + b for a, b in zip(tw, self.algebra.mono_weight(m)))
            if w is None:
                w = tw
            elif w != tw:
                raise PreconditionError("chain is not weight-homogeneous")
        return w

    def __add__(self, other):
        self._compat(other)
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = out.get(t, ZERO) + c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return BarChain(self.algebra, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = QQ(c)
        return BarChain(self.algebra, self.degree, {t: c * v for t, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, BarChain)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def _compat(self, other):
        if self.algebra is not other.algebra or self.degree != other.degree:
            raise ValueError("chains live in different groups")

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
            tensor = (hm, *tensor_entries)
            c = terms.get(tensor, ZERO) + sign * hc
            if c:
                terms[tensor] = c
            else:
                terms.pop(tensor, None)
    return BarChain(algebra, deg if deg is not None else 0, terms)


class SliceContext:
    """Per-algebra cache of slice bases and differential matrices.

    It also owns identity verification: nothing else multiplies b or B
    matrices.  `verify` checks b^2 = 0, B^2 = 0, bB + Bb = 0 or b^2 = 0 on
    Connes' complex on one slice exactly and remembers the outcome, so every
    consumer of a slice (HH and HC dimensions, quotient spaces, the test
    grids) pays for each product once.
    """

    def __init__(self, algebra: GradedAlgebra, conv: Convention | str = "standard"):
        self.algebra = algebra
        self.conv = convention(conv) if isinstance(conv, str) else conv
        self._bases = {}
        self._indexes = {}
        self._b = {}
        self._B = {}
        self._cyclic_indexes = {}
        self._cyclic_bases = {}
        self._cyclic_b = {}
        self._products = {}
        self._idempotents = {}
        self._verified = {}

    # -- bases --------------------------------------------------------

    def basis(self, n: int, w) -> tuple:
        w = self.algebra._coerce_weight(w)
        key = (n, w)
        cached = self._bases.get(key)
        if cached is not None:
            return cached
        alg = self.algebra
        if n < 0:
            result: tuple = ()
            self._bases[key] = result
            return result
        positive = [v for v in alg.weight_vectors_upto(w) if vec_total(v) > 0]
        positive.sort(key=lambda v: (vec_total(v), v))
        min_pos = min((vec_total(v) for v in positive), default=None)
        out = []

        def fill(slots, prefix):
            """Extend prefix (list of monomials) over remaining weight slots."""
            if not slots:
                out.append(tuple(prefix))
                return
            for m in alg.weight_basis(slots[0]):
                prefix.append(m)
                fill(slots[1:], prefix)
                prefix.pop()

        def compose(i, remaining, chosen):
            if i == n:
                # the head takes whatever weight is left (possibly zero)
                if alg.dim(remaining) > 0:
                    fill([remaining] + chosen, [])
                return
            if min_pos is None:
                return
            left = n - i
            if vec_total(remaining) < left * min_pos:
                return
            for v in positive:
                if vec_leq(v, remaining):
                    chosen.append(v)
                    compose(i + 1, vec_sub(remaining, v), chosen)
                    chosen.pop()

        if n == 0:
            fill([w], [])
        else:
            compose(0, w, [])
        result = tuple(out)
        self._bases[key] = result
        return result

    def index(self, n: int, w) -> dict:
        w = self.algebra._coerce_weight(w)
        key = (n, w)
        cached = self._indexes.get(key)
        if cached is None:
            cached = {t: i for i, t in enumerate(self.basis(n, w))}
            self._indexes[key] = cached
        return cached

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

    def b_tensor(self, tensor):
        """b of one tensor as {tensor: coeff}."""
        if self.conv.reverse_tensors:
            flipped = self._b_tensor_std(self._reverse(tensor))
            return {self._reverse(t): c for t, c in flipped.items()}
        return self._b_tensor_std(tensor)

    def _b_tensor_std(self, tensor):
        n = len(tensor) - 1
        out = {}
        if n == 0:
            return out

        def emit(t, c):
            s = out.get(t, 0) + c
            if s:
                out[t] = s
            else:
                out.pop(t, None)

        for i in range(n):
            sign = -1 if i % 2 else 1
            rest = tensor[:i] + tensor[i + 2 :]
            for m, c in self._product(tensor[i], tensor[i + 1]):
                emit(rest[:i] + (m,) + rest[i:], sign * c)
        if not self.conv.b_drop_wrap:
            sign = -1 if n % 2 else 1
            if self.conv.b_wrap_flip:
                sign = -sign
            body = tensor[1:n]
            for m, c in self._product(tensor[n], tensor[0]):
                emit((m, *body), sign * c)
        return out

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
            t = (unit, *rotated)
            s = out.get(t, 0) + sign
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return out

    # -- chain-level operations ------------------------------------------

    def b_chain(self, chain: BarChain) -> BarChain:
        out = {}
        for tensor, c in chain.terms.items():
            for t, v in self.b_tensor(tensor).items():
                s = out.get(t, ZERO) + c * v
                if s:
                    out[t] = s
                else:
                    out.pop(t, None)
        return BarChain(chain.algebra, chain.degree - 1, out)

    def B_chain(self, chain: BarChain) -> BarChain:
        out = {}
        for tensor, c in chain.terms.items():
            for t, v in self.B_tensor(tensor).items():
                s = out.get(t, ZERO) + c * v
                if s:
                    out[t] = s
                else:
                    out.pop(t, None)
        return BarChain(chain.algebra, chain.degree + 1, out)

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
                        t = (hm, *entries)
                        s2 = out.get(t, ZERO) + coeff * hc
                        if s2:
                            out[t] = s2
                        else:
                            out.pop(t, None)
        return BarChain(alg, p + q, out)

    def shuffle_power(self, chain: BarChain, k: int) -> BarChain:
        out = BarChain(self.algebra, 0, {((0,) * self.algebra.ngens,): QQ(1)})
        for _ in range(k):
            out = self.shuffle(out, chain)
        return out

    # -- matrices ----------------------------------------------------------

    def b_matrix(self, n: int, w) -> SparseMatrix:
        w = self.algebra._coerce_weight(w)
        key = (n, w)
        cached = self._b.get(key)
        if cached is not None:
            return cached
        src = self.basis(n, w)
        dst_index = self.index(n - 1, w) if n >= 1 else {}
        entries = {}
        for j, tensor in enumerate(src):
            for t, c in self.b_tensor(tensor).items():
                entries[(dst_index[t], j)] = c
        mat = SparseMatrix(len(dst_index), len(src), entries)
        self._b[key] = mat
        return mat

    def idempotent_matrix(self, n: int, w, i: int) -> SparseMatrix:
        """e_n^(i) on the (n, w) slice (1 <= i <= n), built once per context."""
        w = self.algebra._coerce_weight(w)
        key = (n, w, i)
        cached = self._idempotents.get(key)
        if cached is None:
            cached = self._idempotents[key] = hodge.idempotent_matrix(self, n, w, i)
        return cached

    def B_matrix(self, n: int, w) -> SparseMatrix:
        w = self.algebra._coerce_weight(w)
        key = (n, w)
        cached = self._B.get(key)
        if cached is not None:
            return cached
        src = self.basis(n, w)
        dst_index = self.index(n + 1, w)
        entries = {}
        for j, tensor in enumerate(src):
            for t, c in self.B_tensor(tensor).items():
                entries[(dst_index[t], j)] = c
        mat = SparseMatrix(len(dst_index), len(src), entries)
        self._B[key] = mat
        return mat

    # -- Connes' cyclic complex ---------------------------------------------

    def _cyclic_canon(self, tensor):
        """(representative, sign) with tensor = sign * representative in
        C^lambda, or None where the tensor's orbit is zero there.

        Each rotation costs the sign (-1)^n, so rotating by k costs
        (-1)^{nk}; an orbit of length L whose n*L is odd is fixed by a
        rotation of sign -1 and vanishes.  Under reversed tensors the
        rotation is conjugated by the reversal as well.
        """
        if self.conv.reverse_tensors:
            found = self._cyclic_canon_std(self._reverse(tensor))
            return None if found is None else (self._reverse(found[0]), found[1])
        return self._cyclic_canon_std(tensor)

    @staticmethod
    def _cyclic_canon_std(tensor):
        n = len(tensor) - 1
        period = next(k for k in range(1, n + 2) if tensor[k:] + tensor[:k] == tensor)
        if n * period % 2:
            return None
        k = min(range(period), key=lambda i: tensor[i:] + tensor[:i])
        return tensor[k:] + tensor[:k], -1 if n * k % 2 else 1

    def cyclic_index(self, n: int, w) -> dict:
        """{tensor: (basis position, sign) or None} over C^lambda_n at weight w.

        Covers every positive-head tensor of `basis(n, w)`; None marks the
        tensors of vanishing orbits.
        """
        w = self.algebra._coerce_weight(w)
        key = (n, w)
        cached = self._cyclic_indexes.get(key)
        if cached is not None:
            return cached
        unit = (0,) * self.algebra.ngens
        canon = {}
        reps = []
        for tensor in self.basis(n, w):
            if tensor[0] != unit:
                canon[tensor] = self._cyclic_canon(tensor)
                if canon[tensor] == (tensor, 1):
                    reps.append(tensor)
        position = {t: i for i, t in enumerate(reps)}
        index = {
            t: None if found is None else (position[found[0]], found[1])
            for t, found in canon.items()
        }
        self._cyclic_indexes[key] = index
        self._cyclic_bases[key] = tuple(reps)
        return index

    def cyclic_basis(self, n: int, w) -> tuple:
        """Orbit representatives of C^lambda_n at weight w, in basis order."""
        w = self.algebra._coerce_weight(w)
        self.cyclic_index(n, w)
        return self._cyclic_bases[(n, w)]

    def cyclic_b_matrix(self, n: int, w) -> SparseMatrix:
        """b : C^lambda_n -> C^lambda_{n-1} at weight w."""
        w = self.algebra._coerce_weight(w)
        key = (n, w)
        cached = self._cyclic_b.get(key)
        if cached is not None:
            return cached
        src = self.cyclic_basis(n, w)
        dst_index = self.cyclic_index(n - 1, w)
        dst_dim = len(self.cyclic_basis(n - 1, w))
        entries = {}
        for j, tensor in enumerate(src):
            for t, c in self.b_tensor(tensor).items():
                hit = dst_index[t]
                if hit is not None:
                    ij = (hit[0], j)
                    entries[ij] = entries.get(ij, 0) + hit[1] * c
        mat = SparseMatrix(dst_dim, len(src), entries)
        self._cyclic_b[key] = mat
        return mat

    # -- identity verification --------------------------------------------

    def verify(self, identity: str, n: int, w):
        """Check one identity on the (n, w) slice exactly, once per context.

        "b.b" is b_n b_{n+1} = 0, "B.B" is B_{n+1} B_n = 0 and "b.B + B.b"
        is b_{n+1} B_n + B_{n-1} b_n = 0, all at C_n in weight w; "cyclic
        b.b" is b_n b_{n+1} = 0 on Connes' complex.  A term through a
        negative degree is an empty matrix and vanishes.  A failure raises
        CompositionNonzeroError, every time it is asked.
        """
        w = self.algebra._coerce_weight(w)
        key = (identity, n, w)
        holds = self._verified.get(key)
        if holds is None:
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
            holds = self._products_cancel(terms)
            self._verified[key] = holds
        if not holds:
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

    def check_slice(self, n: int, w):
        """b^2, B^2 and, unless the convention is corrupt, bB + Bb at (n, w)."""
        self.verify("b.b", n, w)
        self.verify("B.B", n, w)
        if not self.conv.corrupt:
            self.verify("b.B + B.b", n, w)

    def in_boundary(self, chain: BarChain) -> bool:
        w = chain.weight()
        if w is None:
            return True
        vec = chain.vector(self.index(chain.degree, w))
        return self.b_matrix(chain.degree + 1, w).column_echelon().contains(vec)
