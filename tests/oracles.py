"""Reference routines that only the tests use, kept out of the library."""

from supertroesch.linalg import FpMatrix, ShapeMismatchError, matmul


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
