"""Slice assembly against the per-tensor construction it replaced.

`SliceContext` walks each slice once: one slot memo per context, each
rotation orbit once, b written into int rows, and Connes' b folded from
the bar b.  `_PerTensorSlices` keeps the former construction as an oracle:
a basis walk with a memo of its own per call, each tensor canonicalised on
its own, b applied again to every representative, and every matrix built
by the `SparseMatrix` constructor.  Every object must come out `==`.
"""

from collections import defaultdict
from itertools import product

from hypothesis import example, given, seed, settings

from khh.algebra import vec_leq, vec_sub, vec_total
from khh.barcomplex import CONVENTIONS, SliceContext
from khh.linalg import SparseMatrix
from conftest import algebra_of, small_algebras


class _PerTensorSlices:
    """The former slice assembly; b and B of one tensor come from a
    separate `SliceContext`, whose `_b_into` is the one definition of b
    (`b_tensor` runs it on one tensor and reads the faces back)."""

    def __init__(self, algebra, conv):
        self.algebra = algebra
        self.ops = SliceContext(algebra, conv)
        self.reverse = self.ops.conv.reverse_tensors
        self._bases = {}

    def basis(self, n, w):
        w = self.algebra._coerce_weight(w)
        if (n, w) in self._bases:
            return self._bases[(n, w)]
        alg = self.algebra
        out = []
        if n >= 0:
            positive = [v for v in alg.weight_vectors_upto(w) if vec_total(v) > 0]
            positive.sort(key=lambda v: (vec_total(v), v))
            memo = {}

            def slots(k, remaining):
                found = memo.get((k, remaining))
                if found is None:
                    if k == 0:
                        found = alg.weight_basis(remaining)
                    else:
                        found = []
                        for v in positive:
                            if vec_leq(v, remaining):
                                rest = slots(k - 1, vec_sub(remaining, v))
                                if rest:
                                    found.append((alg.weight_basis(v), rest))
                    memo[(k, remaining)] = found
                return found

            def walk(node, chosen):
                if len(chosen) == n:
                    out.extend(product(node, *chosen))
                else:
                    for entries, rest in node:
                        walk(rest, chosen + (entries,))

            walk(slots(n, w), ())
        self._bases[(n, w)] = tuple(out)
        return self._bases[(n, w)]

    def index(self, n, w):
        return {t: i for i, t in enumerate(self.basis(n, w))}

    def b_tensor(self, tensor, w):
        n = len(tensor) - 1
        rows = defaultdict(dict)
        self.ops._b_into(rows, [tensor], n, w)
        target = self.ops.basis(n - 1, w)
        return {target[r]: row[0] for r, row in rows.items() if row}

    def _matrix(self, src, dst_index, image):
        entries = {}
        for j, tensor in enumerate(src):
            for t, c in image(tensor).items():
                entries[(dst_index[t], j)] = c
        return SparseMatrix(len(dst_index), len(src), entries)

    def b_matrix(self, n, w):
        dst = self.index(n - 1, w) if n >= 1 else {}
        return self._matrix(self.basis(n, w), dst, lambda tensor: self.b_tensor(tensor, w))

    def B_matrix(self, n, w):
        return self._matrix(self.basis(n, w), self.index(n + 1, w), self.ops.B_tensor)

    @staticmethod
    def _canon_std(tensor):
        n = len(tensor) - 1
        period = next(k for k in range(1, n + 2) if tensor[k:] + tensor[:k] == tensor)
        if n * period % 2:
            return None
        k = min(range(period), key=lambda i: tensor[i:] + tensor[:i])
        return tensor[k:] + tensor[:k], -1 if n * k % 2 else 1

    def _canon(self, tensor):
        if self.reverse:
            flip = self.ops._reverse
            found = self._canon_std(flip(tensor))
            return None if found is None else (flip(found[0]), found[1])
        return self._canon_std(tensor)

    def cyclic(self, n, w):
        """(cyclic_index, cyclic_basis) at (n, w)."""
        unit = (0,) * self.algebra.ngens
        canon, reps = {}, []
        for tensor in self.basis(n, w):
            if tensor[0] != unit:
                canon[tensor] = self._canon(tensor)
                if canon[tensor] == (tensor, 1):
                    reps.append(tensor)
        position = {t: i for i, t in enumerate(reps)}
        index = {
            t: None if found is None else (position[found[0]], found[1])
            for t, found in canon.items()
        }
        return index, tuple(reps)

    def cyclic_b_matrix(self, n, w):
        src = self.cyclic(n, w)[1]
        dst_index, dst_basis = self.cyclic(n - 1, w)
        entries = {}
        for j, tensor in enumerate(src):
            for t, c in self.b_tensor(tensor, w).items():
                hit = dst_index[t]
                if hit is not None:
                    ij = (hit[0], j)
                    entries[ij] = entries.get(ij, 0) + hit[1] * c
        return SparseMatrix(len(dst_basis), len(src), entries)


def _assert_assembly_matches(algebra, conv, weights, n_max):
    ctx, ref = SliceContext(algebra, conv), _PerTensorSlices(algebra, conv)
    for w in weights:
        # the Kunneth and report order: every bar b first, then Connes
        for n in range(n_max + 1):
            assert ctx.basis(n, w) == ref.basis(n, w), (conv, n, w)
            assert ctx.b_matrix(n, w) == ref.b_matrix(n, w), (conv, n, w)
            assert ctx.B_matrix(n, w) == ref.B_matrix(n, w), (conv, n, w)
        for n in range(n_max + 1):
            index, basis = ref.cyclic(n, w)
            assert ctx.cyclic_index(n, w) == index, (conv, n, w)
            assert ctx.cyclic_basis(n, w) == basis, (conv, n, w)
            assert ctx.cyclic_b_matrix(n, w) == ref.cyclic_b_matrix(n, w), (conv, n, w)


@settings(max_examples=30)
@seed(0)
@given(small_algebras())
@example(((2, 3), ((((0, 2), 1), ((3, 0), -1)),)))  # the cusp y^2 = x^3
@example(((1, 1), ((((2, 0), 2), ((0, 2), -3)),)))  # 2x^2 = 3y^2: b has halves or thirds
def test_one_pass_assembly_equals_the_per_tensor_construction(spec):
    algebra = algebra_of(spec)
    for conv in CONVENTIONS:
        _assert_assembly_matches(algebra, conv, range(6), 4)


def test_one_pass_assembly_on_a_bigraded_extension(cusp):
    # cusp[t]: one context's slot trees serve every bigraded weight
    ext = cusp.with_polynomial_generator("t")
    weights = [(w, j) for w in range(7) for j in range(3)]
    for conv in CONVENTIONS:
        _assert_assembly_matches(ext, conv, weights, 3)
    # Connes' b first on a fresh context: the fold builds each bar b_n itself
    for conv in CONVENTIONS:
        ctx, ref = SliceContext(ext, conv), _PerTensorSlices(ext, conv)
        for n in range(4):
            assert ctx.cyclic_b_matrix(n, (6, 2)) == ref.cyclic_b_matrix(n, (6, 2)), conv
