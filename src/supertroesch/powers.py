"""Monomial bases and structure maps for the power functors S, Lambda, Gamma, A.

Monomials are sorted exponent vectors; signs are normalized by sorting odd
generators with Koszul sign accumulation, so equality of elements is exact
dictionary equality.  A basis is enumerated once, as a numpy array of
exponent rows (``power_exponents``); ``power_basis`` wraps the rows as
``PowerMonomial``s for the callers that want objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError
from .superspace import EVEN, ODD, SuperSpace


class PowerKind(Enum):
    SYM = "S"
    EXT = "L"
    DIV = "G"
    ALT = "A"

    @property
    def bounded_parity(self):
        """Parity whose generators may appear with exponent at most one."""
        return ODD if self in (PowerKind.SYM, PowerKind.DIV) else EVEN

    @property
    def is_quotient(self):
        """S and Lambda are quotients of the tensor power; Gamma and A sit inside it."""
        return self in (PowerKind.SYM, PowerKind.EXT)

    @property
    def is_signed(self):
        """Kinds whose commutation law carries the extra length sign."""
        return self in (PowerKind.EXT, PowerKind.ALT)


def binom_mod(n, k, p):
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) % p


def add_mod_p(coeffs, key, c, p):
    """Add c to coeffs[key] mod p; a key whose sum is 0 is removed."""
    v = (coeffs.get(key, 0) + c) % p
    if v:
        coeffs[key] = v
    else:
        coeffs.pop(key, None)


@dataclass(frozen=True)
class PowerMonomial:
    """An admissible monomial: exps is a tuple of (basis index, exponent >= 1)."""

    kind: PowerKind
    space: SuperSpace
    exps: tuple

    @property
    def zdeg(self):
        zdegs = self.space.zdegs()
        return sum(e * zdegs[i] for i, e in self.exps)

    @property
    def parity(self):
        parities = self.space.parities()
        return sum(e * parities[i] for i, e in self.exps) % 2

    def label(self):
        names = self.space.names()
        parts = []
        for i, e in self.exps:
            nm = names[i]
            parts.append(nm if e == 1 else f"{nm}^{e}")
        return "1" if not parts else ".".join(parts)

    def __repr__(self):
        return f"<{self.kind.value}:{self.label()}>"


def power_exponents(kind, n, space):
    """Exponent rows of all admissible degree-n monomials, one row per
    monomial, in descending lexicographic order.

    The rows are built one generator at a time: every partial row takes each
    exponent its generator allows, from the largest down, and an exponent is
    allowed when the generators after it can still take the rest of the
    degree.  Generators of the kind's bounded parity take at most 1.
    """
    caps = _caps(kind, n, space)
    dtype = np.min_scalar_type(n)
    # after[j]: the most degree the generators from j on can take
    after = np.cumsum((0,) + caps[::-1])[::-1].tolist()
    if n > after[0]:
        return np.zeros((0, space.dim), dtype=dtype)
    rows = np.zeros((1, 0), dtype=dtype)
    rem = np.array([n], dtype=np.int64)
    for j, cap in enumerate(caps):
        hi = np.minimum(rem, cap)
        counts = hi - np.maximum(rem - after[j + 1], 0) + 1
        parent = np.repeat(np.arange(rem.size), counts)
        first = np.cumsum(counts) - counts
        e = hi[parent] - (np.arange(parent.size) - first[parent])
        rows = np.concatenate([rows[parent], e[:, None].astype(dtype)], axis=1)
        rem = rem[parent] - e
    return rows


def _caps(kind, n, space):
    """The largest exponent each generator takes in a degree-n monomial."""
    return tuple(1 if q == kind.bounded_parity else n for q in space.parities())


@lru_cache(maxsize=64)
def _rank_table(caps, n):
    """above[j, m * (n+1) + e]: how many admissible rows share a row's
    generators before j and give generator j more than e, when the
    generators from j on take degree m.  A row's position in
    ``power_exponents`` is the sum of these over its generators."""
    dim, size = len(caps), n + 1
    deg = np.arange(size)
    left = deg[:, None] - deg  # [m, e]: the degree left after j when j takes e of m
    count = (deg == 0).astype(np.int64)  # the ways the generators after j take each degree
    above = np.zeros((dim, size, size), dtype=np.int64)
    for j in range(dim - 1, -1, -1):
        # ways[m, e]: the ways the generators from j on take degree m, j taking e
        ways = np.where((left >= 0) & (deg <= caps[j]), count[left], 0)
        count = ways.sum(axis=1)
        above[j] = count[:, None] - np.cumsum(ways, axis=1)
    return above.reshape(dim, size * size)


def exponent_ranks(kind, n, space, rows):
    """The position in ``power_exponents(kind, n, space)`` of each
    admissible degree-n exponent row: its inverse, with no search.

    The table of ``_rank_table`` is read once per generator column.  Any
    other row of degree n gets some integer; callers that may pass one
    compare the row at that position with it.
    """
    above = _rank_table(_caps(kind, n, space), n)
    rank = np.zeros(len(rows), dtype=np.int64)
    # m * (n+1) for the degree m the generators from j on take
    at = np.full(len(rows), n * (n + 1), dtype=np.intp)
    # the last generator takes what is left, and nothing lies above it
    for j, e in enumerate(np.ascontiguousarray(rows[:, :-1].T, dtype=np.intp)):
        at += e
        rank += above[j].take(at)
        at -= e * (n + 2)
    return rank


def nonzero_entries(rows, table):
    """For each exponent row, the list of table[g, e] over its nonzero
    exponents e, in index order g."""
    at, gens = np.nonzero(rows)
    parts = table[gens, rows[at, gens]].tolist()
    ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
    return [parts[a:b] for a, b in zip([0] + ends, ends)]


def exponent_tuples(rows):
    """The ``PowerMonomial.exps`` of each exponent row: its (index, exponent)
    pairs with a nonzero exponent, in index order."""
    dim, top = rows.shape[1], int(rows.max(initial=0))
    # one tuple per (index, exponent), shared by every row that has it
    pairs = np.empty((dim, top + 1), dtype=object)
    for g in range(dim):
        for e in range(top + 1):
            pairs[g, e] = (g, e)
    return [tuple(part) for part in nonzero_entries(rows, pairs)]


@lru_cache(maxsize=1024)
def power_basis(kind, n, space):
    """All admissible degree-n monomials, in the order of ``power_exponents``."""
    return tuple(PowerMonomial(kind, space, exps) for exps in exponent_tuples(power_exponents(kind, n, space)))


# ---------------------------------------------------------------------------
# signs of arrangements


def koszul_sign_of_arrangement(indices, parities):
    """(-1)-exponent counting inversion pairs of odd factors in the sequence."""
    s = 0
    n = len(indices)
    for a in range(n):
        if parities[indices[a]] == EVEN:
            continue
        for b in range(a + 1, n):
            if parities[indices[b]] == ODD and indices[a] > indices[b]:
                s += 1
    return s


# ---------------------------------------------------------------------------
# products


def multiply_out(kind, space, factors, p, budget=None, stage=None):
    """Product of the factors, in order, each a {exps: coeff} combination of
    exponent tuples ((index, exponent >= 1), ...).

    Two monomials multiply by the product rule of the kind, on the tuples
    themselves.  A generator of the bounded parity that the right factor
    brings to exponent two or more kills the product.  Where indices
    overlap, the divided-power kinds multiply by the binomial
    C(a + b, b) mod p.  Moving the right factor's generators left past the
    larger indices of the left factor gives the Koszul sign, a factor
    (-1)^(a*b) for each crossing of two odd generators, and for each
    crossing of generators that are not both odd in the signed kinds.

    Returns {exps: coeff}, its terms in the order the pairs are met: the
    running product outer, the factor inner.  With a budget, the running
    product may hold at most that many monomials after each factor; the
    error names the stage.
    """
    par = space.parities()
    bounded = kind.bounded_parity
    binomial = not kind.is_quotient
    signed = kind.is_signed

    def sign_part(exps):
        # the generators that can change the sign of a crossing
        return exps if signed else tuple(ie for ie in exps if par[ie[0]] == ODD)

    combo = {(): 1}
    for fac in factors:
        rights = [
            (e2, c2, dict(e2), [j for j, _ in e2 if par[j] == bounded], sign_part(e2))
            for e2, c2 in fac.items()
            # a bounded generator squared dies against every left monomial
            if all(b == 1 or par[j] != bounded for j, b in e2)
        ]
        nxt = {}
        for e1, c1 in combo.items():
            d1 = dict(e1)
            sg1 = sign_part(e1)
            for e2, c2, d2, bounded2, sg2 in rights:
                c = c1 * c2
                if d2.keys().isdisjoint(d1):
                    key = tuple(sorted(e1 + e2))
                else:
                    if any(j in d1 for j in bounded2):
                        continue
                    merged = dict(d1)
                    for j, b in e2:
                        a = merged.get(j, 0)
                        merged[j] = a + b
                        if binomial:
                            c *= math.comb(a + b, b)
                    if c % p == 0:
                        continue
                    key = tuple(sorted(merged.items()))
                if sg1 and sg2 and sum(a * b * (par[i] * par[j] + signed) for i, a in sg1 for j, b in sg2 if i > j) % 2:
                    c = -c
                add_mod_p(nxt, key, c, p)
        combo = nxt
        if budget is not None and len(combo) > budget:
            raise BudgetExceededError(stage, len(combo), budget)
    return combo


def multiset_coeff(m, a):
    """Number of degree-a monomials in m polynomial variables."""
    if m == 0:
        return 1 if a == 0 else 0
    return math.comb(a + m - 1, a)


def dim_formula_sym(n, m_even, m_odd):
    """dim S^n(k^{m|m'}) by the closed product formula."""
    return sum(
        multiset_coeff(m_even, n - b) * math.comb(m_odd, b)
        for b in range(min(n, m_odd) + 1)
    )
