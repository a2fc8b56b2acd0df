"""Shared reference oracles, deliberately independent of the library kernels.

The determinant here is Laplace expansion over verified scalar field ops,
so rank and independence answers do not reuse the vectorized elimination
they are checking.
"""

from __future__ import annotations

from itertools import combinations

from fqexchange.gf import FieldSpec


def ref_det(entries, field: FieldSpec) -> int:
    """Determinant by cofactor expansion; entries is a list of row lists."""
    n = len(entries)
    if n == 0:
        return 1
    if n == 1:
        return entries[0][0] % field.q if field.e == 1 else entries[0][0]
    total = 0
    sign_flip = False
    for j in range(n):
        a = entries[0][j]
        if a:
            minor = [[row[c] for c in range(n) if c != j] for row in entries[1:]]
            term = field.mul_idx(a, ref_det(minor, field))
            if sign_flip:
                term = field.neg_idx(term)
            total = field.add_idx(total, term)
        sign_flip = not sign_flip
    return total


def ref_rank(entries, field: FieldSpec) -> int:
    """Largest r with a nonsingular r x r submatrix; fine for tiny matrices."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    for r in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), r):
            for csel in combinations(range(cols), r):
                sub = [[entries[i][j] for j in csel] for i in rsel]
                if ref_det(sub, field) != 0:
                    return r
    return 0


def ref_is_basis(columns, field: FieldSpec) -> bool:
    """columns: list of column tuples; True iff they form a square nonsingular matrix."""
    n = len(columns)
    rows = [[columns[j][i] for j in range(n)] for i in range(n)]
    return ref_det(rows, field) != 0


def ref_matmul(a, b, field: FieldSpec):
    """Matrix product over verified scalar field ops; a and b are nonempty lists of row lists."""
    inner = len(b)
    cols = len(b[0])
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc = field.add_idx(acc, field.mul_idx(row[t], b[t][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def ref_completion(r, c, field: FieldSpec):
    """An n x n matrix M with M[:k] = r and M^-1[:, :k] = c, given r c = I.

    The rows below r are a basis of the left null space of c, found by
    scalar Gauss-Jordan elimination of c^T: then M c = [I; 0], so the
    first k columns of M^-1 are c.
    """
    n = len(c)
    k = len(c[0]) if n else 0
    work = [[c[i][j] for i in range(n)] for j in range(k)]  # c^T, k x n
    pivots = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, k) if work[i][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        scale = field.inv_idx(work[row][col])
        work[row] = [field.mul_idx(scale, v) for v in work[row]]
        for i in range(k):
            f = work[i][col]
            if i != row and f:
                work[i] = [field.add_idx(v, field.neg_idx(field.mul_idx(f, w))) for v, w in zip(work[i], work[row])]
        pivots.append(col)
        row += 1
    null_rows = []
    for free in (j for j in range(n) if j not in pivots):
        vec = [0] * n
        vec[free] = 1
        for i, p in enumerate(pivots):
            vec[p] = field.neg_idx(work[i][free])
        null_rows.append(vec)
    return [list(rr) for rr in r] + null_rows


def ref_search_reduced(vp, up, x1, x2, field: FieldSpec):
    """First serial ordering pair (sigma, tau) in lexicographic position order, or None.

    The backtracking search over orderings in reduced coordinates: a
    prefix is valid iff the minors vp[sigma, tau] and up[tau, sigma] have
    nonzero ref_det.  vp and up are lists of row lists.
    """
    k = len(x1)

    def valid(rows, cols):
        return ref_det([[vp[i][j] for j in cols] for i in rows], field) != 0 and ref_det(
            [[up[j][i] for i in rows] for j in cols], field
        ) != 0

    if not valid(x1, x2):
        return None
    ones, twos = sorted(x1), sorted(x2)
    sigma, tau = [], []

    def dfs():
        if len(sigma) == k:
            return True
        for i in ones:
            if i in sigma:
                continue
            for j in twos:
                if j in tau:
                    continue
                sigma.append(i)
                tau.append(j)
                if valid(sigma, tau) and dfs():
                    return True
                sigma.pop()
                tau.pop()
        return False

    return (tuple(sigma), tuple(tau)) if dfs() else None
