"""Monomial bases and structure maps for the power functors S, Lambda, Gamma, A.

Monomials are sorted exponent vectors; signs are normalized by sorting odd
generators with Koszul sign accumulation, so equality of elements is exact
dictionary equality.
"""

from __future__ import annotations

import itertools
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

    @property
    def dual(self):
        return _DUALS[self]


_DUALS = {
    PowerKind.SYM: PowerKind.DIV,
    PowerKind.DIV: PowerKind.SYM,
    PowerKind.EXT: PowerKind.ALT,
    PowerKind.ALT: PowerKind.EXT,
}


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
    def degree(self):
        return sum(e for _, e in self.exps)

    @property
    def zdeg(self):
        return sum(e * self.space.basis[i].zdeg for i, e in self.exps)

    @property
    def parity(self):
        return sum(e * self.space.basis[i].parity for i, e in self.exps) % 2

    def is_admissible(self):
        bounded = self.kind.bounded_parity
        return all(e == 1 for i, e in self.exps if self.space.basis[i].parity == bounded)

    def factor_sequence(self):
        """Basis indices with multiplicity, ascending."""
        seq = []
        for i, e in self.exps:
            seq.extend([i] * e)
        return seq

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


def monomial_from_sequence(kind, space, seq):
    counts = {}
    for i in seq:
        counts[i] = counts.get(i, 0) + 1
    return monomial_from_counts(kind, space, counts)


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
# signed tensors and the symmetric group action


class SignedTensor:
    """A GF(p) combination of pure tensors over a fixed space, fixed length."""

    __slots__ = ("space", "n", "p", "terms")

    def __init__(self, space, n, p, terms=None):
        self.space = space
        self.n = n
        self.p = p
        self.terms = terms if terms is not None else {}

    def add_term(self, key, coeff):
        add_mod_p(self.terms, key, coeff, self.p)

    def items(self):
        return sorted(self.terms.items())

    def is_zero(self):
        return not self.terms

    def scaled(self, c):
        c %= self.p
        out = SignedTensor(self.space, self.n, self.p)
        for k, v in self.terms.items():
            out.add_term(k, v * c)
        return out

    def __add__(self, other):
        out = SignedTensor(self.space, self.n, self.p, dict(self.terms))
        for k, v in other.terms.items():
            out.add_term(k, v)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SignedTensor)
            and self.space == other.space
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"SignedTensor({len(self.terms)} terms, n={self.n})"


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


def inversion_count(indices):
    s = 0
    n = len(indices)
    for a in range(n):
        for b in range(a + 1, n):
            if indices[a] > indices[b]:
                s += 1
    return s


def act_sigma(t, sigma):
    """Right action of sigma: position i of the result carries factor sigma(i)."""
    n = t.n
    if len(sigma) != n:
        raise ValueError("permutation length mismatch")
    par = t.space.parities()
    out = SignedTensor(t.space, n, t.p)
    for key, coeff in t.terms.items():
        new = tuple(key[sigma[i]] for i in range(n))
        s = 0
        for a in range(n):
            for b in range(a + 1, n):
                if sigma[a] > sigma[b]:
                    s += par[new[a]] * par[new[b]]
        out.add_term(new, coeff * (-1) ** s)
    return out


def _distinct_arrangements(seq):
    """All distinct arrangements of a multiset, lexicographic order."""
    out = []
    counts = {}
    for x in seq:
        counts[x] = counts.get(x, 0) + 1
    keys = sorted(counts)
    n = len(seq)
    acc = []

    def rec():
        if len(acc) == n:
            out.append(tuple(acc))
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                acc.append(k)
                rec()
                acc.pop()
                counts[k] += 1

    rec()
    return out


def arrangement_sign(kind, arrangement, parities):
    """Sign of one arrangement inside the orbit expansion of a DIV or ALT monomial."""
    s = koszul_sign_of_arrangement(arrangement, parities)
    if kind is PowerKind.ALT:
        s += inversion_count(arrangement)
    return (-1) ** s


def lift_from_power(m, p):
    """Canonical tensor representative (SYM, EXT) or full orbit sum (DIV, ALT)."""
    if not m.is_admissible():
        raise ValueError(f"inadmissible monomial {m!r}")
    seq = tuple(m.factor_sequence())
    t = SignedTensor(m.space, m.degree, p)
    if m.kind.is_quotient:
        t.add_term(seq, 1)
        return t
    par = m.space.parities()
    for arr in _distinct_arrangements(seq):
        t.add_term(arr, arrangement_sign(m.kind, arr, par))
    return t


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


def project_to_power(kind, t):
    """Express a tensor in the monomial basis of the kind.

    For SYM and EXT this is the quotient map applied termwise.  For DIV and
    ALT the input must lie in the corresponding invariant subspace; the
    coefficient of each monomial is then read off its sorted representative.
    """
    par = t.space.parities()
    out = {}
    for key, coeff in t.terms.items():
        if kind.is_quotient:
            srt, sign = sort_with_sign(kind, key, par)
            if srt is None:
                continue
            add_mod_p(out, monomial_from_sequence(kind, t.space, srt), sign * coeff, t.p)
        elif all(key[a] <= key[a + 1] for a in range(len(key) - 1)):
            # each sorted key is its own monomial, met once
            add_mod_p(out, monomial_from_sequence(kind, t.space, key), coeff, t.p)
    return out


def project_checked(kind, t):
    """project_to_power plus verification that lifting back reproduces t."""
    combo = project_to_power(kind, t)
    if not kind.is_quotient:
        back = SignedTensor(t.space, t.n, t.p)
        for m, c in combo.items():
            back = back + lift_from_power(m, t.p).scaled(c)
        if back != t:
            raise ValueError("tensor is not in the invariant subspace of the kind")
    return combo


# ---------------------------------------------------------------------------
# products and coproducts


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


def shuffle_product_via_reps(m1, m2, p, reverse_reps=False):
    """DIV/ALT product as an explicit sum over coset representatives.

    Representatives are enumerated as the interleavings of positions; with
    reverse_reps a second, different enumeration of the same cosets is used.
    The result must not depend on that choice.
    """
    kind = m1.kind
    if kind.is_quotient:
        raise ValueError("shuffle product is for DIV/ALT")
    a = m1.degree
    b = m2.degree
    n = a + b
    t1 = lift_from_power(m1, p)
    t2 = lift_from_power(m2, p)
    base = SignedTensor(m1.space, n, p)
    for k1, c1 in t1.terms.items():
        for k2, c2 in t2.terms.items():
            base.add_term(k1 + k2, c1 * c2)
    positions = list(itertools.combinations(range(n), a))
    if reverse_reps:
        positions = positions[::-1]
    total = SignedTensor(m1.space, n, p)
    for pos in positions:
        pos_set = set(pos)
        rest = [i for i in range(n) if i not in pos_set]
        # sigma sends result position i to source position sigma[i]
        sigma = [0] * n
        for src, dst in enumerate(pos):
            sigma[dst] = src
        for src, dst in enumerate(rest):
            sigma[dst] = a + src
        acted = act_sigma(base, tuple(sigma))
        if kind is PowerKind.ALT:
            acted = acted.scaled((-1) ** inversion_count(sigma))
        total = total + acted
    return project_to_power(kind, total)


def coproduct_component(m, a, b, p):
    """Component Delta_{a,b} of the coproduct: list of ((left, right), coeff).

    Quotient kinds split each exponent with a binomial coefficient; invariant
    kinds split with coefficient one.  The sign counts right-going copies of
    earlier generators crossing left-going copies of later ones.
    """
    if a + b != m.degree:
        raise ValueError("split does not match degree")
    kind = m.kind
    par = m.space.parities()
    gens = list(m.exps)
    out = {}

    def rec(idx, rem_left, left_counts, right_gone, coeff, sign_exp):
        if idx == len(gens):
            if rem_left:
                return
            left = monomial_from_counts(kind, m.space, left_counts)
            right_counts = {i: e - left_counts.get(i, 0) for i, e in gens}
            right = monomial_from_counts(kind, m.space, right_counts)
            add_mod_p(out, (left, right), coeff * (-1) ** sign_exp, p)
            return
        i, e = gens[idx]
        for x in range(min(e, rem_left), -1, -1):
            c = coeff
            if kind.is_quotient:
                c = (c * binom_mod(e, x, p)) % p
            if c == 0:
                continue
            y = e - x
            s = sign_exp
            for j, yj in right_gone:
                cross = par[j] * par[i]
                if kind.is_signed:
                    cross += 1
                s += yj * x * cross
            if x:
                left_counts[i] = x
            right_gone.append((i, y))
            rec(idx + 1, rem_left - x, left_counts, right_gone, c, s)
            right_gone.pop()
            if x:
                del left_counts[i]

    rec(0, a, {}, [], 1, 0)
    return sorted(out.items(), key=lambda kv: (kv[0][0].exps, kv[0][1].exps))


def yoneda_hom_dim(kind, n, space):
    """(even, odd) dimension of the natural maps from the kind's n-th power
    into the parameterized symmetric power on the given space.

    Computed as the dimension of the dual power functor evaluated on the
    space: the dual pairs SYM with DIV and EXT with ALT.
    """
    dual = kind.dual
    ev = od = 0
    for m in power_basis(dual, n, space):
        if m.parity == EVEN:
            ev += 1
        else:
            od += 1
    return (ev, od)


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
