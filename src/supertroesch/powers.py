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
        return sum(e * self.space.basis[i].zdeg for i, e in self.exps)

    @property
    def parity(self):
        return sum(e * self.space.basis[i].parity for i, e in self.exps) % 2

    def label(self):
        parts = []
        for i, e in self.exps:
            nm = self.space.basis[i].name
            parts.append(nm if e == 1 else f"{nm}^{e}")
        return "1" if not parts else ".".join(parts)

    def __repr__(self):
        return f"<{self.kind.value}:{self.label()}>"


def monomial_from_counts(kind, space, counts):
    exps = tuple(sorted((i, e) for i, e in counts.items() if e))
    return PowerMonomial(kind, space, exps)


def power_exponents(kind, n, space):
    """Exponent rows of all admissible degree-n monomials, one row per
    monomial, in descending lexicographic order.

    The rows are built one generator at a time: every partial row takes each
    exponent its generator allows, from the largest down, and an exponent is
    allowed when the generators after it can still take the rest of the
    degree.  Generators of the kind's bounded parity take at most 1.
    """
    caps = [1 if q == kind.bounded_parity else n for q in space.parities()]
    dtype = np.min_scalar_type(n)
    # after[j]: the most degree the generators from j on can take
    after = np.cumsum([0] + caps[::-1])[::-1].tolist()
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


def sort_with_sign(kind, seq, parities):
    """Stable-sort a factor sequence, returning (sorted tuple, sign) or (None, 0).

    The sign is the product of adjacent-swap signs of the kind; None means the
    monomial dies (repeated generator of the bounded parity).
    """
    seq = list(seq)
    sign = 1
    signed = kind.is_signed
    # insertion sort; n stays small
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            s = parities[seq[j - 1]] * parities[seq[j]]
            if signed:
                s += 1
            sign *= (-1) ** s
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            j -= 1
    bounded = kind.bounded_parity
    for a in range(1, len(seq)):
        if seq[a] == seq[a - 1] and parities[seq[a]] == bounded:
            return None, 0
    return tuple(seq), sign


# ---------------------------------------------------------------------------
# products


def power_product(m1, m2, p):
    """Product of two monomials as {monomial: coeff}; empty dict means zero."""
    if m1.kind is not m2.kind or m1.space != m2.space:
        raise ValueError("kind/space mismatch in product")
    kind = m1.kind
    par = m1.space.parities()
    e1 = dict(m1.exps)
    e2 = dict(m2.exps)
    bounded = kind.bounded_parity
    merged = dict(e1)
    coeff = 1
    for i, e in e2.items():
        tot = merged.get(i, 0) + e
        if par[i] == bounded and tot > 1:
            return {}
        if not kind.is_quotient and i in e1:
            coeff = (coeff * binom_mod(tot, e, p)) % p
        merged[i] = tot
    if coeff == 0:
        return {}
    # crossing sign: factors of m2 move left past larger-index factors of m1
    s = 0
    for i, a in e1.items():
        for j, b in e2.items():
            if i > j:
                cross = par[i] * par[j]
                if kind.is_signed:
                    cross += 1
                s += a * b * cross
    coeff = (coeff * (-1) ** s) % p
    if coeff == 0:
        return {}
    return {monomial_from_counts(kind, m1.space, merged): coeff}


def multiply_out(kind, space, factors, p, budget=None, stage=None):
    """Product of the factors, in order, each a {exps: coeff} combination.

    Returns {exps: coeff}.  With a budget, the running product may hold at
    most that many monomials after each factor; the error names the stage.
    """
    combo = {(): 1}
    for fac in factors:
        nxt = {}
        for e1, c1 in combo.items():
            m1 = PowerMonomial(kind, space, e1)
            for e2, c2 in fac.items():
                for m, c in power_product(m1, PowerMonomial(kind, space, e2), p).items():
                    add_mod_p(nxt, m.exps, c1 * c2 * c, p)
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
