"""Finite-dimensional Z x Z/2-graded superspaces and graded linear maps.

Includes the standard constructions (tensor, parity shift, dual, hom,
Frobenius twist of the grading) and the shift spaces Sh_r with their
degree-raising maps rho_s.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


class SuperSpace:
    """A graded space: the Z-degree, the parity and the name of each basis
    vector, kept as three columns.

    ``SuperSpace(basis)`` reads the columns off the ``BasisElement``s;
    ``SuperSpace.from_columns`` takes the gradings and a function that
    writes the names, called when the names are first needed.  The
    dimension and every grading query read the grading columns alone;
    ``==`` and ``hash`` compare the gradings first, then the names.
    ``basis`` is made on first read, with the name check.
    """

    def __init__(self, basis):
        basis = tuple(basis)
        check_unique_names(basis)
        self.basis = basis
        self._zdegs = tuple(b.zdeg for b in basis)
        self._parities = tuple(b.parity for b in basis)
        self._names = tuple(b.name for b in basis)

    @classmethod
    def from_columns(cls, zdegs, parities, names):
        """The space whose basis vector i has Z-degree zdegs[i] and parity
        parities[i]; names() writes the basis names in the same order."""
        space = cls.__new__(cls)
        space._zdegs, space._parities, space._write_names = tuple(zdegs), tuple(parities), names
        return space

    @cached_property
    def _names(self):
        return tuple(self._write_names())

    @cached_property
    def basis(self):
        basis = tuple(map(BasisElement, self._names, self._zdegs, self._parities))
        check_unique_names(basis)
        return basis

    def __eq__(self, other):
        if not isinstance(other, SuperSpace):
            return NotImplemented
        return self is other or (
            self._zdegs == other._zdegs and self._parities == other._parities and self._names == other._names
        )

    @cached_property
    def _hash(self):
        # hash((basis,)), computed on first use and kept: a BasisElement
        # hashes as the tuple of its fields, so no basis is made.  Power
        # monomials key dicts and hash their space on every lookup
        return hash((tuple(zip(self._names, self._zdegs, self._parities)),))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SuperSpace(basis={self.basis!r})"

    @property
    def dim(self):
        return len(self._parities)

    @cached_property
    def _by_parity(self):
        odd = np.array(self._parities, dtype=np.int8) == ODD
        return tuple(tuple(np.flatnonzero(mask).tolist()) for mask in (~odd, odd))

    def dims_by_parity(self):
        even, odd = self._by_parity
        return (len(even), len(odd))

    def names(self):
        """The name of each basis vector, as a tuple written once."""
        return self._names

    def parities(self):
        """The parity of each basis vector, as a tuple."""
        return self._parities

    def zdegs(self):
        """The Z-degree of each basis vector, as a tuple."""
        return self._zdegs

    def indices_of_parity(self, parity):
        """The basis indices of the given parity, as a tuple computed once."""
        return self._by_parity[parity]


ZERO_SPACE = SuperSpace(())


def k_super(m, n):
    """k^{m|n}: m even and n odd generators, all in Z-degree 0."""
    return SuperSpace.from_columns(
        [0] * (m + n), [EVEN] * m + [ODD] * n, lambda: [f"e{i}" for i in range(m)] + [f"o{i}" for i in range(n)]
    )


def tensor(v, w):
    """Graded tensor product; basis ordered with the V index major."""
    return SuperSpace.from_columns(
        [a + b for a in v.zdegs() for b in w.zdegs()],
        [(a + b) % 2 for a in v.parities() for b in w.parities()],
        lambda: [f"{a}*{b}" for a in v.names() for b in w.names()],
    )


def parity_shift(v):
    """The parity change Pi applied to objects: flip parities, mark names."""
    return SuperSpace.from_columns(v.zdegs(), [1 - q for q in v.parities()], lambda: [f"pi({a})" for a in v.names()])


def frobenius_twist_space(v, r, p):
    """Scale all Z-degrees by p^r; parities are unchanged.

    Public API, one of the README's standard constructions; the package
    twists functors, not spaces."""
    if r < 0:
        raise ValueError("twist order must be >= 0")
    if r == 0:
        return v
    q = p ** r
    return SuperSpace.from_columns([z * q for z in v.zdegs()], v.parities(), lambda: [f"{a}^({r})" for a in v.names()])


def dual_space(v):
    """The graded dual: Z-degrees negated, parities kept.

    Public API, one of the README's standard constructions."""
    return SuperSpace.from_columns([-z for z in v.zdegs()], v.parities(), lambda: [f"{a}^*" for a in v.names()])


def hom_space(v, w):
    """Hom_k(V, W) with matrix-unit basis E(i,j), (target, source) lexicographic."""
    return SuperSpace.from_columns(
        [b - a for b in w.zdegs() for a in v.zdegs()],
        [(b + a) % 2 for b in w.parities() for a in v.parities()],
        lambda: [f"E({i},{j})" for i in range(w.dim) for j in range(v.dim)],
    )


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
    q = p ** r
    return SuperSpace.from_columns(range(q), [EVEN] * q, lambda: [f"sh_{i}" for i in range(q)])


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
        tp, sp = self.target.parities(), self.source.parities()
        tz, sz = self.target.zdegs(), self.source.zdegs()
        for (i, j), _ in self.matrix.nonzero_items():
            if (tp[i] - sp[j]) % 2 != self.parity:
                raise ValueError(f"entry ({i},{j}) violates parity {self.parity}")
            if tz[i] - sz[j] != self.zshift:
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
    parity = (new_target.parities()[i] - new_source.parities()[j]) % 2
    return LinearMapSS(new_source, new_target, f.matrix, parity, new_target.zdegs()[i] - new_source.zdegs()[j])


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
