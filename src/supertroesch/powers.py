"""Monomial bases and structure maps for the power functors S, Lambda, Gamma, A.

Monomials are sorted exponent vectors; signs are normalized by sorting odd
generators with Koszul sign accumulation, so equality of elements is exact
dictionary equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

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


@lru_cache(maxsize=1024)
def power_basis(kind, n, space):
    """All admissible degree-n monomials, in descending lexicographic exponent order."""
    out = []
    dim = space.dim
    bounded = kind.bounded_parity

    def rec(idx, remaining, acc):
        if remaining == 0:
            out.append(PowerMonomial(kind, space, tuple(acc)))
            return
        if idx == dim:
            return
        cap = 1 if space.basis[idx].parity == bounded else remaining
        for e in range(min(cap, remaining), -1, -1):
            if e:
                acc.append((idx, e))
                rec(idx + 1, remaining - e, acc)
                acc.pop()
            else:
                rec(idx + 1, remaining, acc)

    rec(0, n, [])
    return tuple(out)


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
