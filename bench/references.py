"""Reference dimensions computed without khh, using stdlib fractions only.

Two classical models give Hochschild homology of the corpus algebras by a
route that shares no code with khh's bar complex:

* HKR for a free polynomial algebra P = Q[x_1..x_r]: HH_n(P) = Omega^n_P,
  so dim HH_n(P)_w counts pairs (monomial m, n-subset S of the variables)
  with wt(m) + wt(dx_S) = w, and all of it sits in Hodge piece n.
* The hypersurface model for A = P/(f) (Wolffhardt, Trans. AMS 171, 1972):
  HH_*(A) is the homology of A (x) Lambda(dx_1..dx_r) (x) Gamma(u), with
  u^[k] omega in degree i + 2k for omega in Lambda^i, weight wt(omega) +
  k wt(f), and differential d(u^[k] omega) = u^[k-1] df ^ omega.  The
  differential keeps p = i + k fixed, and p is the Hodge piece.

Cyclic homology follows from Goodwillie's theorem (Topology 24, 1985): in
positive weight S = 0, so the SBI sequence splits into
0 -> HC_{n-1} -> HH_n -> HC_n -> 0 and HC_n = sum_k (-1)^k HH_{n-k}.
In weight 0 everything is HC(Q): 1 in even degrees, 0 in odd ones.

Weights are tuples, so the bigraded A[t] of the Kunneth grids is covered
by giving t the weight (0, 1) and every old generator a trailing 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations


class Presentation:
    """Generators with weight vectors and polynomial relations {exps: coeff}."""

    def __init__(self, name, gens, weights, relations):
        self.name = name
        self.gens = tuple(gens)
        self.weights = tuple(tuple(w) for w in weights)
        self.relations = tuple(relations)
        self.rank = len(self.weights[0]) if self.weights else 1

    def with_polynomial_variable(self, name="t"):
        """P[t] with t on a new grading axis, as in the Kunneth comparison."""
        weights = [w + (0,) for w in self.weights] + [(0,) * self.rank + (1,)]
        relations = [{m + (0,): c for m, c in rel.items()} for rel in self.relations]
        return Presentation(f"{self.name}[{name}]", self.gens + (name,), weights, relations)


_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?$")


def parse_presentation(text: str) -> Presentation:
    """Read the `algebra`/`vars`/`rel` lines of an .alg file."""
    name, gens, weights, rel_texts = None, [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "algebra":
            name = rest.strip()
        elif head == "vars":
            for item in rest.split():
                sym, wt = item.split(":")
                gens.append(sym)
                weights.append((int(wt),))
        elif head == "rel":
            rel_texts.append(rest)
        else:
            raise ValueError(f"unknown directive {head!r}")
    index = {g: i for i, g in enumerate(gens)}
    relations = [_parse_poly(t, index) for t in rel_texts]
    return Presentation(name, gens, weights, relations)


def _parse_poly(text: str, index) -> dict:
    poly = {}
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        coeff = Fraction(1)
        if term.startswith("-"):
            coeff, term = -coeff, term[1:]
        exps = [0] * len(index)
        for factor in term.replace("*", " ").split():
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
                continue
            match = _FACTOR.match(factor)
            if match is None:
                raise ValueError(f"cannot read factor {factor!r}")
            exps[index[match.group(1)]] += int(match.group(2) or 1)
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + coeff
    return {m: c for m, c in poly.items() if c}


# -- weights and monomials ----------------------------------------------------


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomials(weights, w):
    """All exponent vectors m with sum_i m_i weights_i == w (w a tuple)."""
    if any(x < 0 for x in w):
        return []
    out = []

    def walk(i, rest, exps):
        if i == len(weights):
            if not any(rest):
                out.append(tuple(exps))
            return
        e, used = 0, rest
        while all(x >= 0 for x in used):
            walk(i + 1, used, exps + [e])
            e += 1
            used = _sub(used, weights[i])
            if not any(weights[i]):
                break

    walk(0, tuple(w), [])
    return out


def wedge_weight(weights, subset, rank):
    total = (0,) * rank
    for i in subset:
        total = _add(total, weights[i])
    return total


# -- HKR ----------------------------------------------------------------------


def hkr_hh(pres: Presentation, n: int, w) -> int:
    """dim HH_n(P)_w = dim Omega^n_w for a free polynomial algebra P."""
    if pres.relations:
        raise ValueError(f"{pres.name} is not free")
    total = 0
    for subset in combinations(range(len(pres.gens)), n):
        rest = _sub(w, wedge_weight(pres.weights, subset, pres.rank))
        total += len(monomials(pres.weights, rest))
    return total


# -- exact rank -----------------------------------------------------------------


def rank(rows) -> int:
    """Rank over Q of sparse rows {column: Fraction}."""
    pivots = {}
    r = 0
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            j = min(row)
            piv = pivots.get(j)
            if piv is None:
                pivots[j] = {k: v / row[j] for k, v in row.items()}
                r += 1
                break
            c = row[j]
            for k, v in piv.items():
                s = row.get(k, 0) - c * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
    return r


# -- the hypersurface model -------------------------------------------------------


class Hypersurface:
    """A = P/(f) for one weight-homogeneous relation f, with its HH model."""

    def __init__(self, pres: Presentation):
        if len(pres.relations) != 1:
            raise ValueError(f"{pres.name} is not a hypersurface")
        self.pres = pres
        self.f = pres.relations[0]
        # one polynomial is a Groebner basis of the ideal it spans, for any order
        self.lead = max(self.f)
        self.f_weight = self._weight(self.lead)
        self.partials = [self._partial(i) for i in range(len(pres.gens))]
        self._bases = {}
        self._ranks = {}

    def _weight(self, mono):
        total = (0,) * self.pres.rank
        for e, wt in zip(mono, self.pres.weights):
            total = _add(total, tuple(e * x for x in wt))
        return total

    def _partial(self, i):
        out = {}
        for m, c in self.f.items():
            if m[i]:
                low = m[:i] + (m[i] - 1,) + m[i + 1:]
                out[low] = out.get(low, 0) + c * m[i]
        return {m: c for m, c in out.items() if c}

    def basis(self, w):
        """Standard monomials of weight w: those the lead of f does not divide."""
        w = tuple(w)
        cached = self._bases.get(w)
        if cached is None:
            cached = sorted(
                m for m in monomials(self.pres.weights, w)
                if not all(a >= b for a, b in zip(m, self.lead))
            )
            self._bases[w] = cached
        return cached

    def normal_form(self, poly):
        poly = dict(poly)
        lc = self.f[self.lead]
        while True:
            reducible = [m for m in poly if all(a >= b for a, b in zip(m, self.lead))]
            if not reducible:
                return poly
            m = max(reducible)
            shift = _sub(m, self.lead)
            c = poly[m] / lc
            for fm, fc in self.f.items():
                key = _add(fm, shift)
                s = poly.get(key, 0) - c * fc
                if s:
                    poly[key] = s
                else:
                    poly.pop(key, None)

    def _component(self, i, k, w):
        """Basis of u^[k] (x) Lambda^i (x) A at weight w, as (subset, monomial)."""
        if i < 0 or k < 0:
            return []
        out = []
        ngens = len(self.pres.gens)
        for subset in combinations(range(ngens), i):
            rest = _sub(w, wedge_weight(self.pres.weights, subset, self.pres.rank))
            rest = _sub(rest, tuple(k * x for x in self.f_weight))
            for m in self.basis(rest):
                out.append((subset, m))
        return out

    def _rank_d(self, i, k, w):
        """Rank of d: (i, k) -> (i + 1, k - 1), u^[k] a dx_S -> u^[k-1] a df ^ dx_S."""
        key = (i, k, w)
        if key in self._ranks:
            return self._ranks[key]
        if k < 1:
            self._ranks[key] = 0
            return 0
        target = {b: j for j, b in enumerate(self._component(i + 1, k - 1, w))}
        rows = []
        for subset, m in self._component(i, k, w):
            row = {}
            for g, partial in enumerate(self.partials):
                if g in subset or not partial:
                    continue
                sign = -1 if sum(1 for s in subset if s < g) % 2 else 1
                new = tuple(sorted(subset + (g,)))
                prod = self.normal_form({_add(pm, m): c for pm, c in partial.items()})
                for pm, c in prod.items():
                    col = target[(new, pm)]
                    s = row.get(col, 0) + sign * c
                    if s:
                        row[col] = s
                    else:
                        row.pop(col, None)
            rows.append(row)
        r = rank(rows)
        self._ranks[key] = r
        return r

    def piece(self, n: int, w, p: int) -> int:
        """dim of Hodge piece p of HH_n(A)_w: homology at i = 2p - n, k = n - p."""
        w = tuple(w)
        i, k = 2 * p - n, n - p
        if i < 0 or k < 0 or i > len(self.pres.gens):
            return 0
        size = len(self._component(i, k, w))
        return size - self._rank_d(i, k, w) - self._rank_d(i - 1, k + 1, w)

    def hodge(self, n: int, w) -> dict:
        """{p: dim} over the nonzero Hodge pieces of HH_n(A)_w."""
        out = {}
        for p in range((n + 1) // 2, n + 1):
            d = self.piece(n, w, p)
            if d:
                out[p] = d
        return out

    def omega(self, p: int, w) -> int:
        """dim Omega^p_A at weight w: the k = 0 end of the model."""
        return self.piece(p, w, p)


# -- one interface over both models -------------------------------------------------


class Reference:
    """HH, Hodge pieces, HC and Omega of a free algebra or a hypersurface."""

    def __init__(self, pres: Presentation):
        self.pres = pres
        self.model = Hypersurface(pres) if pres.relations else None

    @staticmethod
    def covers(pres: Presentation) -> bool:
        return len(pres.relations) <= 1

    def hodge(self, n: int, w) -> dict:
        w = tuple(w)
        if self.model is not None:
            return self.model.hodge(n, w)
        d = hkr_hh(self.pres, n, w)
        return {n: d} if d else {}

    def hh(self, n: int, w) -> int:
        if n < 0:
            return 0
        return sum(self.hodge(n, w).values())

    def hc(self, n: int, w) -> int:
        if n < 0:
            return 0
        if not any(w):
            return 1 if n % 2 == 0 else 0
        return sum((-1) ** k * self.hh(n - k, w) for k in range(n + 1))

    def omega(self, p: int, w) -> int:
        if self.model is not None:
            return self.model.omega(p, tuple(w))
        return hkr_hh(self.pres, p, tuple(w))
