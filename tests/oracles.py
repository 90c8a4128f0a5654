"""Reference routines that only the tests use, kept out of the library."""

from supertroesch.gamma import expand_to_invariant_tensor
from supertroesch.linalg import FpMatrix, ShapeMismatchError, matmul
from supertroesch.powers import PowerKind, SignedTensor, power_basis, project_to_power


def matpow(m, k):
    if m.rows != m.cols:
        raise ShapeMismatchError("matpow", m.shape, m.shape)
    if k < 0:
        raise ValueError("negative power")
    out = FpMatrix.identity(m.p, m.rows)
    for _ in range(k):
        out = matmul(out, m)
    return out


def invert(m):
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ShapeMismatchError("invert", m.shape, m.shape)
    n = m.rows
    out = FpMatrix.zeros(m.p, n, n)
    for k in range(n):
        x = m.solve([1 if i == k else 0 for i in range(n)])
        if x is None:
            return None
        out.data[:, k] = x
    # solve() returns a particular solution; for square systems it is the
    # inverse column exactly when m has full rank
    if matmul(m, out) != FpMatrix.identity(m.p, n):
        return None
    return out


def apply_sym_slow(el):
    """The symmetric-power action of el by the tensor route, in power-basis order.

    el is expanded to its invariant tensor of maps; each key acts factorwise
    on the sorted factor sequence of a source monomial x, with the Koszul
    exponent sum_{a<b} |g_b| |x_a| of moving the maps past the vectors, and
    the image tensor is projected to the symmetric power.
    """
    n = el.n
    dim_v = el.source.dim
    g_par = el.hom.parities()
    x_par = el.source.parities()
    src_basis = power_basis(PowerKind.SYM, n, el.source)
    tgt_index = {m.exps: k for k, m in enumerate(power_basis(PowerKind.SYM, n, el.target))}
    maps = expand_to_invariant_tensor(el).terms
    entries = []
    for col, mono in enumerate(src_basis):
        x = mono.factor_sequence()
        image = SignedTensor(el.target, n, el.p)
        for key, c in maps.items():
            if any(g % dim_v != xa for g, xa in zip(key, x)):
                continue
            kz = sum(g_par[key[b]] * x_par[x[a]] for a in range(n) for b in range(a + 1, n))
            image.add_term(tuple(g // dim_v for g in key), c * (-1) ** kz)
        for m, c in project_to_power(PowerKind.SYM, image).items():
            entries.append(((tgt_index[m.exps], col), c))
    return FpMatrix.from_coords(el.p, len(tgt_index), len(src_basis), entries)
