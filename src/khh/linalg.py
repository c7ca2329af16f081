"""Exact sparse linear algebra over the rationals.

A `SparseMatrix` stores its rows as dicts of Python ints over one positive
common denominator `den`: entry (i, j) is ``_rowdata[i][j] / den``.  The
storage is canonical (no stored zeros, gcd(content, den) = 1), so equal
matrices compare equal.  Every differential this package builds is
integral and has den = 1; rational operators such as the Eulerian
idempotents carry their 1/n! factors in `den`.  Products, sums, scaling,
block assembly (`from_blocks`) and ranks run on ints alone,
with the denominators multiplied or brought to a common multiple; the
factors take the int rows as they are, since scaling by `den` does not
change the row space.  QQ re-enters only at the edges: `items` yields QQ
entries, `apply` returns QQ vectors, and kernel vectors, residuals and
class coordinates come out as QQ.

One builder turns a map given on basis elements into a matrix:
`SparseMatrix.from_images(rows, sources, image, index)` writes column j
from image(sources[j]), a dict of terms or a stream of (key, coefficient)
terms, at the rows index assigns them; a stream's repeated keys add up,
and a sum that cancels leaves no entry.  The Eulerian idempotents stream
their place permutations into the rows this way.  Bar b is the one map
with a kernel of its own, `SliceContext._b_into`, which writes its faces
into the rows with the same rules.  Bar B, chain maps, the
antisymmetrization, ideal slices and form relations pass dicts; class
maps (de Rham d, induced maps, the HKR and units class matrices) go
through `QuotientSpace.matrix_of`, which is the same builder over class
coordinates.  Lookups are strict: a term outside the target basis is a
bug in the map, so it raises SanityError (exit 5) and is never dropped.
Both hand their rows to `SparseMatrix._from_rowdata`, which adopts int
rows as they are, so images must keep int coefficients int
(`rationals.add_term` does); any non-int coefficient sends the whole
matrix through the constructor, which brings QQ entries over a common
denominator.

Block matrices are laid out by slot.  `SparseMatrix.from_blocks(row_sizes,
col_sizes, blocks)` takes each block with its (block row, block column)
and is the one place slots become offsets.  A block must have exactly its
slot's shape, so a block in the wrong slot raises ValueError rather than
landing inside the matrix; blocks in one slot add up, which is how
`__add__` sums.  The total complex, the fiber cone, the stacked class
maps and the block-diagonal idempotents and conductor slices of a square
are all built this way.

There is one eliminator in the package, `Factor`, fraction-free in the
style of Bareiss, with one row step, `_eliminate`: a row with entry a at
the pivot column c becomes (p/g)*row - (a/g)*pivot row, where p is the
pivot entry and g the gcd of a and p with the sign of p, so the row is
scaled by p/g > 0 and a unit pivot never scales it.  The batch walk then
strips the row's content, and `_reduce` the gcd of the content and the
row's scale.  `Factor` has two pivot rules.  Markowitz pivots keep
fill-in low on the incidence-like differentials this package produces;
they serve `rank`, which keeps only the count and never reads a cached
factor, the cached `column_echelon`, which answers membership, and
`column_factor`, which holds a `QuotientSpace`'s boundaries.  None of
those answers depends on the pivot order.  Kernels do: the basis is the
reduced one for the free columns, so `echelon` and `kernel_basis` use
natural column order, whose free columns, and hence the pinned
representatives, are those of a rational echelon with pivots scaled to 1.
No composite is multiplied out here: complexes are checked identity by
identity, the fiber cone's included (b.b by `SliceContext.holds`, plus
its chain-map identity).

Singleton lemma (the first phase of structured Gaussian elimination:
LaMacchia and Odlyzko, "Solving large sparse linear systems over finite
fields", CRYPTO 1990).  Let column c have exactly one live row r.  Every
other live row is zero at c, so r is independent of them and serves as
the pivot row at c as it stands, and taking it out changes no other row.
Each earlier pivot column had only its own row live while r was live, so
r is zero there, as a `Factor` pivot row must be.  Markowitz order
therefore pivots singleton columns first, with no arithmetic, until none
is left, and eliminates only what remains; on free1[t]'s largest
compressed b_4 in the Kunneth grid at (n, w, j) <= (3, 12, 4) this
pivots all 10851 of its rows.  `rank` reads the pivot columns alone and
keeps no pivot row.  The cascade is a fast path of the exact heap's own
order, not a rule of its own: a singleton column's key (1, c) is the
least any live column holds, and the cascade takes the least singleton
column each time, as the heap would.  With the cascade deleted, the heap
alone picks the same pivot columns and rows in the same order on all
3504 factors that the two bench Kunneth grids and the nine-entry bench
report build; the 1020 Kunneth factors replay in 0.15 s with it and
0.21 s without it (medians of 20 alternating runs in one process, on a
2-core Xeon machine).  Natural order does not take the lemma: its
pivot must be the leftmost entry of its row, which the kernel basis and
the pinned representatives read, and a singleton column need not hold
its row's leftmost entry.

Compression (Bauer, Kerber and Reininghaus, *Clear and Compress*; the
chain-complex view is Kaczynski, Mrozek and Slusarek's reduction).  Let
d_{m-1} d_m = 0 hold exactly and let P be the pivot columns of any row
factor of d_{m-1}.  The factor's rows restricted to P are triangular with
a nonzero diagonal, so dropping the coordinates in P is injective on
ker d_{m-1}, which contains im d_m.  Hence d_m with its rows in P deleted
has the rank and the row space of d_m, and its own pivot columns serve
the next differential.  `chain_rank`, the one walk over every complex,
passes `rank(skip_rows=P)` only where the composite has been verified.

Classes on free coordinates, the same lemma on the cycle side.  Let
d_out d_in = 0 hold and let F be the free columns of d_out's natural
factor.  Projecting onto F is injective on ker d_out, and it sends the
reduced kernel basis (what `kernel_basis` returns) to the unit vectors
e_f.  So ker d_out / im d_in is QQ^F modulo the columns of d_in restricted
to their rows at F, and a set of kernel vectors is independent modulo the
boundaries exactly when its unit vectors are.  `QuotientSpace` therefore
picks, in natural order, the e_f independent of those columns and of the
earlier picks, which are the kernel vectors the full-matrix construction
picks, and lifts only the picks by back-substitution over the natural
factor.  Its class count still checks the ranks independently: the ranks
come from Markowitz factors of the compressed d_n and d_{n+1}, the classes
from d_out's natural factor and a column factor of d_in on F, which share
no elimination and rest only on the verified composite.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm

from .rationals import QQ, add_term
from .errors import NotSquareError, PreconditionError, SanityError


class SparseMatrix:
    """Immutable sparse matrix over QQ: int rows over a common denominator."""

    __slots__ = ("rows", "cols", "den", "_rowdata", "_pivots", "_echelon", "_col_echelon")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        rowdata = [None] * rows
        fractional = False
        if entries:
            for (i, j), v in entries.items() if isinstance(entries, dict) else entries:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
                if type(v) is not int:
                    if not isinstance(v, QQ):
                        v = QQ(v)
                    if v.denominator == 1:
                        v = v.numerator
                    else:
                        fractional = True
                if not v:
                    continue
                row = rowdata[i]
                if row is None:
                    row = rowdata[i] = {}
                if j in row:
                    raise ValueError(f"duplicate entry at ({i},{j})")
                row[j] = v
        rowdata = [row if row is not None else {} for row in rowdata]
        den = 1
        if fractional:
            for row in rowdata:
                for v in row.values():
                    den = lcm(den, v.denominator)
            for row in rowdata:
                for j, v in row.items():
                    row[j] = v.numerator * (den // v.denominator)
        self._adopt(rows, cols, rowdata, den)

    def _adopt(self, rows, cols, rowdata, den):
        """Take int rows without stored zeros over den > 0, in lowest terms."""
        if den != 1:
            g = den
            for row in rowdata:
                if row:
                    g = gcd(g, *row.values())
                    if g == 1:
                        break
            if g != 1:
                rowdata = [{j: v // g for j, v in row.items()} for row in rowdata]
                den //= g
        self.rows = rows
        self.cols = cols
        self.den = den
        self._rowdata = tuple(rowdata)
        self._pivots = None
        self._echelon = None
        self._col_echelon = None

    @classmethod
    def _of_rows(cls, rows, cols, rowdata, den=1):
        mat = cls.__new__(cls)
        mat._adopt(rows, cols, rowdata, den)
        return mat

    @classmethod
    def _from_rowdata(cls, rows, cols, rowdata):
        """The matrix of sparse rows {column: coefficient} holding no zero:
        int rows are adopted as they are, and any other coefficient sends
        the entries through the constructor."""
        if all(type(c) is int for row in rowdata for c in row.values()):
            return cls._of_rows(rows, cols, rowdata)
        entries = (((i, j), c) for i, row in enumerate(rowdata) for j, c in row.items())
        return cls(rows, cols, entries)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_images(cls, rows, sources, image, index):
        """The rows x len(sources) matrix of a map given on basis elements.

        Column j is image(sources[j]): a dict {key: coefficient} or a stream
        of (key, coefficient) terms whose repeated keys add up, written at
        the rows index[key]; pass range(rows) where the keys already are rows
        (never negative, as range would wrap them).  A key outside index
        raises SanityError, and a sum that cancels stores nothing; the rows
        then go through `_from_rowdata`.
        """
        rowdata = [{} for _ in range(rows)]
        for j, source in enumerate(sources):
            terms = image(source)
            for key, c in terms.items() if isinstance(terms, dict) else terms:
                try:
                    row = rowdata[index[key]]
                except (KeyError, IndexError):
                    raise SanityError(
                        f"column {j}: image term {key!r} lies outside the target basis"
                    ) from None
                add_term(row, j, c)
        return cls._from_rowdata(rows, len(sources), rowdata)

    @classmethod
    def from_blocks(cls, row_sizes, col_sizes, blocks):
        """The block matrix whose slots have the given row and column sizes.

        blocks: iterable of (block row, block column, SparseMatrix).  A block
        must have exactly its slot's shape, else ValueError; blocks in one
        slot add up.  Only here do slots become offsets.
        """
        row_off = list(accumulate(row_sizes, initial=0))
        col_off = list(accumulate(col_sizes, initial=0))
        blocks = list(blocks)
        den = lcm(1, *(block.den for _, _, block in blocks))
        rowdata = [{} for _ in range(row_off[-1])]
        for bi, bj, block in blocks:
            in_layout = 0 <= bi < len(row_sizes) and 0 <= bj < len(col_sizes)
            if not in_layout or (block.rows, block.cols) != (row_sizes[bi], col_sizes[bj]):
                raise ValueError(
                    f"{block.rows}x{block.cols} block does not fit slot ({bi},{bj}) "
                    f"of a {len(row_sizes)}x{len(col_sizes)} block layout"
                )
            f = den // block.den
            c0 = col_off[bj]
            for i, brow in enumerate(block._rowdata, row_off[bi]):
                if not brow:
                    continue
                row = rowdata[i]
                for j, v in brow.items():
                    add_term(row, j + c0, v * f)
        return cls._of_rows(row_off[-1], col_off[-1], rowdata, den)

    @classmethod
    def identity(cls, n):
        return cls._of_rows(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    # -- accessors ----------------------------------------------------

    def items(self):
        den = self.den
        for i, row in enumerate(self._rowdata):
            for j, v in row.items():
                yield (i, j), QQ(v) if den == 1 else QQ(v, den)

    def columns(self):
        """The columns as sparse vectors {row: QQ}."""
        out = [{} for _ in range(self.cols)]
        for (i, j), v in self.items():
            out[j][i] = v
        return out

    def nnz(self):
        return sum(len(row) for row in self._rowdata)

    def is_zero(self):
        return all(not row for row in self._rowdata)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self._rowdata == other._rowdata
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return SparseMatrix.from_blocks([self.rows], [self.cols], [(0, 0, self), (0, 0, other)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return SparseMatrix.zero(self.rows, self.cols)
        num = c.numerator
        rowdata = [{j: num * v for j, v in row.items()} for row in self._rowdata]
        return SparseMatrix._of_rows(self.rows, self.cols, rowdata, self.den * c.denominator)

    def __matmul__(self, other):
        """The product, each row scattered into one dense accumulator.

        Gustavson's row-by-row kernel (ACM TOMS 4, 1978): acc holds None at
        every column no term of the row has reached, and `touched` lists the
        columns reached, in first-touch order, so a row costs its terms plus
        its touched columns and acc is clean again for the next row.  Sums
        cancel often here, so zeros are dropped once, when a row is read out.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        orows = other._rowdata
        acc = [None] * other.cols
        out = []
        for row in self._rowdata:
            touched = []
            for k, a in row.items():
                for j, b in orows[k].items():
                    v = acc[j]
                    if v is None:
                        touched.append(j)
                        acc[j] = a * b
                    else:
                        acc[j] = v + a * b
            sums = {}
            for j in touched:
                v = acc[j]
                acc[j] = None
                if v:
                    sums[j] = v
            out.append(sums)
        return SparseMatrix._of_rows(self.rows, other.cols, out, self.den * other.den)

    def apply(self, vec):
        """Matrix times sparse vector (dict col->value) -> dict row->QQ."""
        x, s = _lift(vec)
        den = s * self.den
        out = {}
        for i, row in enumerate(self._rowdata):
            t = 0
            for j, a in row.items():
                b = x.get(j)
                if b is not None:
                    t += a * b
            if t:
                out[i] = QQ(t, den)
        return out

    # -- elimination --------------------------------------------------

    def rank(self, skip_rows=frozenset()):
        """Rank over QQ, from a Markowitz factor of the rows outside skip_rows.

        Precondition: each skipped row lies in the span of the rows kept, so
        the kept rows have the rank and the row space of the whole matrix
        (`chain_rank` skips a row only where the
        lemma in the module docstring proves this).  The factor's pivot
        columns are cached and their count returned; its fill-in dies with
        the call.  A later call returns the cached count, whatever rows it
        names, since every valid factor has the same rank and row space.
        """
        if self._pivots is None:
            rows = self._rowdata
            if skip_rows:
                rows = [row for i, row in enumerate(rows) if i not in skip_rows]
            self._pivots = frozenset(Factor.markowitz_pivots(rows))
        return len(self._pivots)

    def pivot_columns(self):
        """Pivot columns of the row factor behind `rank`, factored in full if
        `rank` has not run yet."""
        if self._pivots is None:
            self.rank()
        return self._pivots

    def echelon(self):
        """Natural-order factor of the rows (den scales every row alike)."""
        if self._echelon is None:
            self._echelon = Factor(self.cols, self._rowdata, markowitz=False)
        return self._echelon

    def kernel_basis(self):
        """Exact basis of the right null space, deterministic in column order."""
        return self.echelon().kernel_vectors()

    def column_echelon(self):
        """Markowitz factor of the column space, cached."""
        if self._col_echelon is None:
            self._col_echelon = self.column_factor()
        return self._col_echelon

    def column_factor(self, keep=None):
        """Markowitz factor of the columns restricted to the rows in `keep`
        (every row if None), over the row indices as coordinates; not cached."""
        columns = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._rowdata):
            if keep is None or i in keep:
                for j, v in row.items():
                    columns[j][i] = v
        return Factor(self.rows, columns)


class Factor:
    """Fraction-free factor of a row space, pivot rows kept in pivot order.

    Each pivot row is a primitive int row, positive at its pivot and zero at
    every earlier pivot column, so fill-in from a pivot row lands only on
    later pivots: `_reduce` is one sweep in pivot order, and the rank is the
    number of pivots.  Rows given at construction are eliminated at once;
    `QuotientSpace` appends its class pivots with `_append`.  QQ rows are
    lifted over their common denominator.
    """

    def __init__(self, ncols, rows=(), markowitz=True):
        self.ncols = ncols
        self.pivot_rows = {}  # pivot col -> primitive int row, in pivot order
        self._position = {}  # pivot col -> its index in pivot order
        self._eliminate_rows([dict(row) for row in rows if row], markowitz, self._append)

    @staticmethod
    def markowitz_pivots(rows) -> list:
        """The pivot columns of the Markowitz factor of rows, in pivot order.

        What `rank` needs, and no more: the elimination is the constructor's,
        but no pivot row is made primitive or kept.
        """
        pivots = []
        Factor._eliminate_rows(
            [dict(row) for row in rows if row], True, lambda row, c: pivots.append(c)
        )
        return pivots

    @staticmethod
    def _eliminate_rows(rows, markowitz, record):
        """Eliminate private int rows, passing each pivot (row, column) to
        record as chosen; record may make the row primitive in place.

        The next pivot column is the least heap key: (live rows, column)
        for Markowitz, pushed again for every column of a pivot row once
        its updates are done and dropped when popped stale, so the count is
        always exact and a column left with one live row is pivoted next;
        or the column alone for natural order, which leaves each pivot the
        leftmost entry of its row and pushes nothing again, since its keys
        never change and fill-in lands only on columns still queued.
        Markowitz order takes the heap's singleton columns first, as a
        cascade with no arithmetic (the singleton lemma in the module
        docstring).  The pivot row is one with a unit entry there if any,
        then the shortest, then the first.  Each other live row at the pivot
        column takes the one row step, `_eliminate`, whose g takes the sign
        of the pivot entry (module docstring); the columns the step filled
        in and cancelled update the live rows, and the row's content is
        stripped.  The walk stops once every row is pivoted or cancelled to
        zero.
        """
        count = len if markowitz else (lambda rids: 0)
        colrows = {}
        for ridx, row in enumerate(rows):
            for c in row:
                colrows.setdefault(c, set()).add(ridx)
        live = len(rows)  # rows neither pivoted nor cancelled to zero
        if markowitz:
            singles = [c for c, rids in colrows.items() if len(rids) == 1]
            heapify(singles)
            while singles:
                c = heappop(singles)
                rids = colrows.pop(c, None)
                if not rids:
                    continue  # its row was pivoted at another column
                (ridx,) = rids
                prow = rows[ridx]
                record(prow, c)
                live -= 1
                for j in prow:
                    s = colrows.get(j)
                    if s is not None:
                        s.discard(ridx)
                        if len(s) == 1:
                            heappush(singles, j)
                        elif not s:
                            del colrows[j]
        heap = [(count(rids), c) for c, rids in colrows.items()]
        heapify(heap)
        while live:
            cnt, c = heappop(heap)
            rids = colrows.get(c)
            if not rids or count(rids) != cnt:
                continue  # empty, or stale: a key with c's current count is queued
            pividx = min(rids, key=lambda r: (abs(rows[r][c]) != 1, len(rows[r]), r))
            prow = rows[pividx]
            record(prow, c)
            live -= 1
            for j in prow:  # each column of the pivot row loses a live row
                colrows[j].discard(pividx)
            for ridx in colrows.pop(c):
                row = rows[ridx]
                _, filled, cancelled = _eliminate(row, prow, c)
                for j in filled:
                    colrows.setdefault(j, set()).add(ridx)
                for j in cancelled:
                    colrows[j].discard(ridx)
                if not row:
                    live -= 1
                    continue
                h = _content(row)
                if h > 1:
                    for j in row:
                        row[j] //= h
            if markowitz:
                for j in prow:
                    s = colrows.get(j)
                    if s:
                        heappush(heap, (len(s), j))

    def _append(self, row, c):
        """Record a nonzero int row, zero at every pivot, with pivot c; made
        primitive with a positive pivot in place."""
        h = _content(row)
        if row[c] < 0:
            h = -h
        if h != 1:
            for j in row:
                row[j] //= h
        self._position[c] = len(self.pivot_rows)
        self.pivot_rows[c] = row

    def _reduce(self, row, s):
        """(residual, scale) of the int row / s modulo the row space; row is consumed.

        The residual is zero at every pivot column.
        """
        pivots, position = self.pivot_rows, self._position
        heap = [(position[c], c) for c in row if c in position]
        heapify(heap)
        while heap:
            c = heappop(heap)[1]
            if c not in row:
                continue  # cancelled, or queued twice
            m, filled, _ = _eliminate(row, pivots[c], c)
            for j in filled:
                if j in position:
                    heappush(heap, (position[j], j))
            s *= m
            if s != 1:
                h = _content(row, s)
                if h != 1:
                    for j in row:
                        row[j] //= h
                    s //= h
        return row, s

    def contains(self, row):
        return not self._reduce(*_lift(row))[0]

    def free_columns(self):
        """The columns without a pivot, in natural order."""
        pivots = self.pivot_rows
        return [f for f in range(self.ncols) if f not in pivots]

    def kernel_vectors(self):
        """Right null space of the rows this factor was built from: the
        reduced basis, one vector per free column in natural order."""
        return [self.kernel_vector(f) for f in self.free_columns()]

    def kernel_vector(self, f):
        """The kernel vector v of free column f with v[f] = 1 and v zero at
        every other free column, as QQ values.

        One integer back-substitution from the last pivot below f down:
        v[p] = -(R_p . v) / R_p[p] for each pivot row R_p.  Only the natural
        factor, whose pivot rows vanish left of their pivots, gives the
        reduced basis vector; there every pivot above f stays zero.
        """
        pivots = self.pivot_rows
        vec, s = {f: 1}, 1
        for c in reversed(pivots):
            if c > f:
                continue
            row = pivots[c]
            t = 0
            for j, a in row.items():
                x = vec.get(j)
                if x is not None and j != c:
                    t += a * x
            if not t:
                continue
            p = row[c]
            g = gcd(t, p)
            m = p // g
            if m != 1:
                for j in vec:
                    vec[j] *= m
                s *= m
            vec[c] = -(t // g)
        return {j: QQ(v, s) for j, v in vec.items()}


def _eliminate(row, prow, c):
    """The one fraction-free row step (module docstring): clears column c
    of row in place by the pivot row prow.

    Returns the factor p/g > 0 the row was scaled by, the columns it filled
    in and the columns other than c it cancelled.
    """
    a = row.pop(c)
    p = prow[c]
    g = gcd(a, p) if p > 0 else -gcd(a, p)
    m = p // g
    a //= g
    if m != 1:
        for j in row:
            row[j] *= m
    filled = []
    cancelled = []
    for j, v in prow.items():
        old = row.get(j)
        if old is None:
            if j != c:  # m*row[c] - a*p is 0, and row[c] is popped
                row[j] = -a * v
                filled.append(j)
        else:
            t = old - a * v
            if t:
                row[j] = t
            else:
                del row[j]
                cancelled.append(j)
    return m, filled, cancelled


def _content(row, h=0):
    """gcd of h and the entries of an int row."""
    for v in row.values():
        h = gcd(h, v)
        if h == 1:
            break
    return h


def _lift(row):
    """(ints, s) with row == ints / s and s > 0 the common denominator; a new dict."""
    s = 1
    for v in row.values():
        if type(v) is not int:
            s = lcm(s, v.denominator)
    if s == 1:
        return {j: int(v) for j, v in row.items()}, 1
    return {j: v.numerator * (s // v.denominator) for j, v in row.items()}, s


class QuotientSpace:
    """Cycles modulo boundaries with exact class coordinates.

    Built from two consecutive differentials d_in: C' -> C and
    d_out: C -> C'' whose composite the caller has verified;
    representatives are the kernel vectors of d_out, in natural column
    order, that are independent of the boundaries and of the earlier
    representatives.  They are found on d_out's free coordinates F (the
    lemma in the module docstring): the picks are the unit vectors e_f,
    f in F, independent of d_in's columns at the rows in F and of the
    earlier picks, and only the picks are lifted to kernel vectors.
    """

    def __init__(self, d_in: SparseMatrix, d_out: SparseMatrix):
        self.ambient_dim = ambient = d_out.cols
        self._d_out = d_out
        natural = d_out.echelon()
        free = natural.free_columns()
        self._free = frozenset(free)
        # class k is the pivot row e_f + e_{ambient + k}, reduced; coords
        # read the residual of a projected cycle at those extra columns
        self._ech = d_in.column_factor(keep=self._free)
        picks = []
        for f in free:
            row, _ = self._ech._reduce({f: 1, ambient + len(picks): 1}, 1)
            # dependent candidates are discarded so class coords stay well defined
            if row and min(row) < ambient:
                self._ech._append(row, min(row))
                picks.append(f)
        self.reps = [natural.kernel_vector(f) for f in picks]

    @property
    def dim(self):
        return len(self.reps)

    def coords(self, vec):
        """Class coordinates of a cycle vector as {rep index: QQ}.

        The picks and the boundaries span QQ^F, so the projection onto F
        reduces to the class columns alone; a projection accepts any vector,
        so the cycle condition d_out . vec = 0 is checked first.
        """
        if self._d_out.apply(vec):
            raise PreconditionError("vector is not a cycle in this slice")
        row, s = _lift(vec)
        free = self._free
        reduced, s = self._ech._reduce({j: v for j, v in row.items() if j in free}, s)
        ambient = self.ambient_dim
        return {c - ambient: QQ(-v, s) for c, v in reduced.items()}

    def matrix_of(self, cycles) -> SparseMatrix:
        """Class coordinates of a sequence of cycle vectors, one column each."""
        return SparseMatrix.from_images(self.dim, cycles, self.coords, range(self.dim))

    def induced_matrix(self, op: SparseMatrix, target: "QuotientSpace") -> SparseMatrix:
        """Matrix on classes of an ambient chain map into `target`'s slice."""
        return target.matrix_of([op.apply(rep) for rep in self.reps])


def chain_rank(differential, m: int, composes) -> int:
    """rank d_m, given d_k as differential(k), kept by the caller with its
    cached pivots, and "d_{k-1} d_k = 0 is verified" as composes(k).  Where
    that holds, d_{k-1} is ranked first and d_k loses its rows at d_{k-1}'s
    pivot columns (the lemma above); elsewhere d_k is factored in full."""
    d = differential(m)
    if m >= 1 and composes(m):
        chain_rank(differential, m - 1, composes)
        return d.rank(skip_rows=differential(m - 1).pivot_columns())
    return d.rank()


def eigenspace(matrix: SparseMatrix, lam):
    """Kernel basis of (M - lam*I); M must be square."""
    if matrix.rows != matrix.cols:
        raise NotSquareError(f"eigenspace of a {matrix.rows}x{matrix.cols} matrix")
    lam = QQ(lam)
    shifted = matrix - SparseMatrix.identity(matrix.rows).scale(lam)
    return shifted.kernel_basis()
