"""Finite-dimensional Z x Z/2-graded superspaces and graded linear maps.

Includes the standard constructions (tensor, parity shift, dual, hom,
Frobenius twist of the grading) and the shift spaces Sh_r with their
degree-raising maps rho_s.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceededError
from .linalg import FpMatrix, check_prime

EVEN = 0
ODD = 1


@dataclass(frozen=True)
class BasisElement:
    name: str
    zdeg: int
    parity: int

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")


def check_unique_names(basis):
    """Raise ValueError unless the basis elements have distinct names."""
    names = [b.name for b in basis]
    if len(set(names)) != len(names):
        raise ValueError("basis names must be unique")


@dataclass(frozen=True)
class SuperSpace:
    basis: tuple

    def __post_init__(self):
        check_unique_names(self.basis)

    @cached_property
    def _hash(self):
        # the value the generated __hash__ would give, computed on first use
        # and kept: power monomials key dicts and hash their space on every
        # lookup
        return hash((self.basis,))

    def __hash__(self):
        return self._hash

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def _by_parity(self):
        even = tuple(i for i, b in enumerate(self.basis) if b.parity == EVEN)
        odd = tuple(i for i, b in enumerate(self.basis) if b.parity == ODD)
        return even, odd

    def dims_by_parity(self):
        even, odd = self._by_parity
        return (len(even), len(odd))

    @cached_property
    def _parities(self):
        return tuple(b.parity for b in self.basis)

    @cached_property
    def _zdegs(self):
        return tuple(b.zdeg for b in self.basis)

    def parities(self):
        """The parity of each basis element, as a tuple computed once."""
        return self._parities

    def zdegs(self):
        """The Z-degree of each basis element, as a tuple computed once."""
        return self._zdegs

    def indices_of_parity(self, parity):
        """The basis indices of the given parity, as a tuple computed once."""
        return self._by_parity[parity]

    def is_zero(self):
        return self.dim == 0


ZERO_SPACE = SuperSpace(())


def k_super(m, n):
    """k^{m|n}: m even and n odd generators, all in Z-degree 0."""
    elems = [BasisElement(f"e{i}", 0, EVEN) for i in range(m)]
    elems += [BasisElement(f"o{i}", 0, ODD) for i in range(n)]
    return SuperSpace(tuple(elems))


def tensor(v, w):
    """Graded tensor product; basis ordered with the V index major."""
    elems = []
    for a in v.basis:
        for b in w.basis:
            elems.append(BasisElement(f"{a.name}*{b.name}", a.zdeg + b.zdeg, (a.parity + b.parity) % 2))
    return SuperSpace(tuple(elems))


def parity_shift(v):
    """The parity change Pi applied to objects: flip parities, mark names."""
    return SuperSpace(tuple(BasisElement(f"pi({b.name})", b.zdeg, 1 - b.parity) for b in v.basis))


def frobenius_twist_space(v, r, p):
    """Scale all Z-degrees by p^r; parities are unchanged.

    Public API, one of the README's standard constructions; the package
    twists functors, not spaces."""
    if r < 0:
        raise ValueError("twist order must be >= 0")
    if r == 0:
        return v
    q = p ** r
    return SuperSpace(tuple(BasisElement(f"{b.name}^({r})", b.zdeg * q, b.parity) for b in v.basis))


def dual_space(v):
    """The graded dual: Z-degrees negated, parities kept.

    Public API, one of the README's standard constructions."""
    return SuperSpace(tuple(BasisElement(f"{b.name}^*", -b.zdeg, b.parity) for b in v.basis))


def hom_space(v, w):
    """Hom_k(V, W) with matrix-unit basis E(i,j), (target, source) lexicographic."""
    elems = []
    for i, bw in enumerate(w.basis):
        for j, bv in enumerate(v.basis):
            elems.append(
                BasisElement(f"E({i},{j})", bw.zdeg - bv.zdeg, (bw.parity + bv.parity) % 2)
            )
    return SuperSpace(tuple(elems))


def check_sh_budget(p, r, budget, stage):
    """Raise BudgetExceededError for the given stage when Sh_r, of dimension
    p^r, is over the budget, before anything of that size is built.

    p^r >= 2^r > budget once r reaches the budget's bit length, so p^r is
    only computed below it; the error names the size as the string p^r.
    """
    if r >= budget.bit_length() or p ** r > budget:
        raise BudgetExceededError(stage, f"{p}^{r}", budget)


def build_Sh(p, r):
    """The p^r-dimensional purely even space with zdeg(sh_i) = i."""
    check_prime(p)
    if r < 1:
        raise ValueError("r must be >= 1")
    return SuperSpace(tuple(BasisElement(f"sh_{i}", i, EVEN) for i in range(p ** r)))


def base_p_digit(i, s, p):
    return (i // p ** s) % p


@dataclass(frozen=True)
class LinearMapSS:
    """A homogeneous linear map: matrix[i, j] = coefficient of target_i in image of source_j."""

    source: SuperSpace
    target: SuperSpace
    matrix: FpMatrix
    parity: int
    zshift: int

    def __post_init__(self):
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"({self.target.dim}, {self.source.dim})"
            )
        self.validate()

    def validate(self):
        for (i, j), _ in self.matrix.nonzero_items():
            bt = self.target.basis[i]
            bs = self.source.basis[j]
            if (bt.parity - bs.parity) % 2 != self.parity:
                raise ValueError(f"entry ({i},{j}) violates parity {self.parity}")
            if bt.zdeg - bs.zdeg != self.zshift:
                raise ValueError(f"entry ({i},{j}) violates zshift {self.zshift}")


def rho(p, r, s):
    """The map on Sh_r raising the s-th base-p digit: sh_i -> sh_{i+p^s}."""
    if not (0 <= s < r):
        raise ValueError(f"rho index s={s} out of range for r={r}")
    sh = build_Sh(p, r)
    q = p ** r
    m = FpMatrix.from_coords(p, q, q, [((i + p ** s, i), 1) for i in range(q) if base_p_digit(i, s, p) <= p - 2])
    return LinearMapSS(sh, sh, m, EVEN, p ** s)


def relabel_map(f, new_source, new_target):
    """Transport a map along basis relabelings that keep order, parity, zdeg offsets."""
    if new_source.dim != f.source.dim or new_target.dim != f.target.dim:
        raise ValueError("relabel dimension mismatch")
    # the first nonzero entry fixes the grading; a zero map keeps f's
    first = next(iter(f.matrix.nonzero_items()), None)
    if first is None:
        return LinearMapSS(new_source, new_target, f.matrix, f.parity, f.zshift)
    (i, j), _ = first
    bt, bs = new_target.basis[i], new_source.basis[j]
    return LinearMapSS(new_source, new_target, f.matrix, (bt.parity - bs.parity) % 2, bt.zdeg - bs.zdeg)


_SPACE_RE = re.compile(r"^k\^\{(\d+)\|(\d+)\}$")
_SH_RE = re.compile(r"^Sh\((\d+)\)$")
_PISH_RE = re.compile(r"^PiSh\((\d+)\)$")


def parse_space(text, p, budget):
    """Parse the CLI space grammar: k^{m|n}, Sh(r), PiSh(r).

    The dimension, m + n or p^r, is read off the literal and checked against
    the budget before any basis is built.
    """
    text = text.strip()
    m = _SPACE_RE.match(text)
    if m:
        even, odd = int(m.group(1)), int(m.group(2))
        if even + odd > budget:
            raise BudgetExceededError("test space", even + odd, budget)
        return k_super(even, odd)
    m = _SH_RE.match(text) or _PISH_RE.match(text)
    if m:
        r = int(m.group(1))
        check_sh_budget(p, r, budget, "test space")
        sh = build_Sh(p, r)
        return sh if m.re is _SH_RE else parity_shift(sh)
    raise ValueError(f"cannot parse space spec {text!r}")
