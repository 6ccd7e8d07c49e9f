"""Exact integer and rational linear algebra.

Everything downstream of this module (polytopes, complexes, monomial
counting) is decided, never approximated: no floating point anywhere.  The
matrices, systems and costs this module takes are integral, since the cells
are cut out by integer rows; each entry point checks once that every entry
is an `int` and raises ValueError naming the first that is not.

Matrices are plain lists of lists in row major order; vectors are lists or
tuples.  The structured pieces are `LinearSystem` (a block of equalities,
weak inequalities and strict inequalities), the LP entry points
`lp_feasible` and `lp_maximize`, and `fourier_motzkin_feasible`, an
independent elimination based feasibility test used to cross check them.

Both LP entry points share one two phase simplex with Bland's rule.  It
keeps an integer tableau T and one common denominator d > 0, the rational
tableau being T / d, and pivots fraction free (Edmonds 1967, Bareiss 1968):
every entry stays, up to sign, a minor of the input, so each division is
exact and Fractions appear only in the returned optimum and witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class InvariantError(RuntimeError):
    """An invariant the mathematics guarantees failed to hold.

    Raised where an `assert` would do, because `python -O` strips asserts.
    """


# ---------------------------------------------------------------------------
# integer matrices


def _int_matrix(rows, what="matrix"):
    """List copy of an int matrix; ValueError names the first other entry.

    int() would truncate a Fraction or float, and a bool is no coefficient.
    """
    out = []
    for i, row in enumerate(rows):
        row = list(row)
        for j, v in enumerate(row):
            if type(v) is not int:
                raise ValueError(
                    f"{what} entry [{i}][{j}] is {v!r}, not an int")
        out.append(row)
    return out


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a:
        return []
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for row in a]


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def reduce_content(vec):
    """Divide an integer vector by its content, keeping the direction.

    math.gcd raises TypeError on a Fraction or float instead of truncating.
    """
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g else tuple(vec)


def canonical_direction(vec):
    """Content reduced with the first nonzero entry positive."""
    red = reduce_content(vec)
    for v in red:
        if v:
            return red if v > 0 else tuple(-x for x in red)
    return red


def _bareiss(m):
    """Fraction-free elimination with row swaps: (rank, signed last pivot).

    Every entry stays a minor of the input (Bareiss 1968), so each division
    is exact; a square matrix of full rank skips no column, so its signed
    last pivot is its determinant.
    """
    a = _int_matrix(m)
    rank, prev, sign = 0, 1, 1
    for c in range(len(a[0]) if a else 0):
        pivot_row = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            a[rank], a[pivot_row] = a[pivot_row], a[rank]
            sign = -sign
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        rank += 1
        if rank == len(a):
            break
    return rank, sign * prev


def det(m):
    """Exact determinant of a square integer matrix."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("det needs a square matrix")
    rank, last = _bareiss(m)
    return last if rank == len(m) else 0


def smith_normal_form(m):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (s, left, right) with left * m * right == s, s diagonal with
    non-negative entries d0 | d1 | ... and |det(left)| = |det(right)| = 1.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = _int_matrix(m)
    left = identity_matrix(rows)
    right = identity_matrix(cols)

    def row_sub(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_sub(i, j, q):
        for r in a:
            r[i] -= q * r[j]
        for r in right:
            r[i] -= q * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    for t in range(min(rows, cols)):
        while True:
            # move the submatrix entry of least magnitude to the pivot seat
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j] != 0 and (best is None
                                         or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // p)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // p)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix for the chain d0 | d1 | ...
            bad = next((i for i in range(t + 1, rows)
                        for j in range(t + 1, cols) if a[i][j] % p), None)
            if bad is None:
                break
            row_sub(t, bad, -1)
        if t < rows and t < cols and a[t][t] < 0:
            row_neg(t)
    return a, left, right


def integer_kernel(m, ncols=None):
    """Lattice basis of {z integer : m z = 0} via the Smith form."""
    if ncols is None:
        if not m:
            raise ValueError("ncols required for a matrix with no rows")
        ncols = len(m[0])
    if not m:
        return [tuple(row) for row in identity_matrix(ncols)]
    s, _left, right = smith_normal_form(m)
    rows = len(s)
    free = [j for j in range(ncols) if j >= rows or s[j][j] == 0]
    return [tuple(right[i][j] for i in range(ncols)) for j in free]


# ---------------------------------------------------------------------------
# rational elimination


def _as_fraction_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def rref(rows):
    """Reduced row echelon form over Fraction. Returns (matrix, pivot columns)."""
    a = _as_fraction_rows(rows)
    if not a:
        return a, []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][c]
        a[r] = [v / inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a, pivots


def rational_rank(rows):
    """Rank over the rationals of an integer matrix: the pivot count."""
    return _bareiss(rows)[0]


def rational_kernel(rows, ncols=None):
    """Basis of the rational null space of the given row matrix."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for a matrix with no rows")
        ncols = len(rows[0])
    if not rows:
        return [tuple(Fraction(v) for v in row) for row in identity_matrix(ncols)]
    a, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -a[i][fc]
        basis.append(tuple(vec))
    return basis


def solve_rational(a, b, ncols=None):
    """Solve a x = b exactly over the rationals.

    Returns (particular, kernel_basis) with free variables set to zero, or
    None when the system is inconsistent.
    """
    if ncols is None:
        if not a:
            raise ValueError("ncols required for a system with no rows")
        ncols = len(a[0])
    if not a:
        zero = tuple(Fraction(0) for _ in range(ncols))
        return zero, rational_kernel([], ncols)
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        particular[pc] = red[i][ncols]
    kernel = rational_kernel(a, ncols)
    return tuple(particular), kernel


# ---------------------------------------------------------------------------
# linear systems and exact feasibility


def _norm_block(block, n_vars, name):
    rows = _int_matrix((tuple(coeffs) + (rhs,) for coeffs, rhs in block),
                       name)
    if any(len(row) != n_vars + 1 for row in rows):
        raise ValueError("constraint arity does not match n_vars")
    return tuple((tuple(row[:-1]), row[-1]) for row in rows)


@dataclass(frozen=True)
class LinearSystem:
    """A x = b, C x <= d, E x < f; (coefficients, rhs) pairs of ints."""

    n_vars: int
    eq: tuple = ()
    le: tuple = ()
    lt: tuple = ()

    def __post_init__(self):
        for name in ("eq", "le", "lt"):
            block = _norm_block(getattr(self, name), self.n_vars, name)
            object.__setattr__(self, name, block)


def _standard_form(system, margin):
    """Integer rows of A z = b, z >= 0 for `system`, with x = u - w.

    Columns: u_0..u_{n-1}, w_0..w_{n-1}, then with `margin` the shared
    strict margin eps, one slack per le row, and with `margin` one slack per
    lt row and the slack of the cap eps <= 1.  Returns (rows, rhs).
    """
    n = system.n_vars
    first = 2 * n + (1 if margin else 0)
    n_le = len(system.le)
    width = first + n_le + (len(system.lt) + 1 if margin else 0)
    rows, rhs = [], []

    def add(coeffs, b, *units):
        row = [*coeffs, *(-c for c in coeffs)] + [0] * (width - 2 * n)
        for col in units:
            row[col] = 1
        rows.append(row)
        rhs.append(b)

    for coeffs, b in system.eq:
        add(coeffs, b)
    for idx, (coeffs, b) in enumerate(system.le):
        add(coeffs, b, first + idx)
    if margin:
        for idx, (coeffs, b) in enumerate(system.lt):
            add(coeffs, b, 2 * n, first + n_le + idx)
        add((0,) * n, 1, 2 * n, width - 1)
    return rows, rhs


def _pivot(tableau, d, r, c):
    """Fraction-free (Edmonds/Bareiss) pivot on (r, c); returns the new d.

    The rational tableau is tableau / d with d > 0.  Every entry stays, up
    to sign, a minor of the input (Sylvester's identity), so the division
    is exact.
    """
    row = tableau[r]
    p = row[c]
    if p < 0:
        row = tableau[r] = [-v for v in row]
        p = -p
    for i, other in enumerate(tableau):
        if i == r:
            continue
        f = other[c]
        if f:
            tableau[i] = [(p * x - f * y) // d for x, y in zip(other, row)]
        elif p != d:
            tableau[i] = [p * x // d for x in other]
    return p


def _run_simplex(tableau, basis, d, ncols):
    """Maximize with Bland's rule; tableau[-1] is the objective row.

    The objective row holds d times the reduced costs, its last entry is
    -d times the value.  Returns the final d.
    """
    m = len(basis)
    while True:
        obj = tableau[-1]
        entering = next((j for j in range(ncols) if obj[j] > 0), None)
        if entering is None:
            return d
        leave = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                if leave is None:
                    leave, num, den = i, tableau[i][-1], coef
                    continue
                # ratio test tableau[i][-1] / coef against num / den
                lhs = tableau[i][-1] * den
                rhs = num * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, tableau[i][-1], coef
        if leave is None:
            raise ArithmeticError("unbounded linear program")
        d = _pivot(tableau, d, leave, entering)
        basis[leave] = entering


def _simplex_max(rows, rhs, cost):
    """Maximize cost . z subject to rows z = rhs, z >= 0 (two phase, exact).

    All inputs are integers.  Returns (value, z) as Fractions, or None when
    infeasible.
    """
    m = len(rows)
    n = len(cost)
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if b < 0:
            row, b = [-v for v in row], -b
        tableau.append(row + [1 if j == i else 0 for j in range(m)] + [b])
    # phase 1: maximize -sum(artificial); a system without rows has none
    obj = [sum(col) for col in zip(*tableau)] or [0] * (n + 1)
    obj[n:n + m] = [0] * m
    tableau.append(obj)
    basis = list(range(n, n + m))
    d = _run_simplex(tableau, basis, 1, n + m)
    if tableau.pop()[-1] > 0:
        return None

    # pivot artificial variables out of the basis, dropping redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j]), None)
            if col is None:
                continue
            d = _pivot(tableau, d, i, col)
            basis[i] = col
        keep.append(i)
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    obj = [d * c for c in cost] + [0]
    for row, b in zip(tableau, basis):
        if cost[b]:
            obj = [o - cost[b] * v for o, v in zip(obj, row)]
    tableau.append(obj)
    d = _run_simplex(tableau, basis, d, n)
    x = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        x[b] = Fraction(row[-1], d)
    return Fraction(-tableau[-1][-1], d), x


def lp_feasible(system):
    """Exact witness for a mixed weak/strict integer system, or None.

    Strict inequalities are handled by maximizing a shared margin eps
    (capped at 1): the system is strictly feasible iff the optimum is
    positive.  Returns a rational point or None.
    """
    n = system.n_vars
    rows, rhs = _standard_form(system, margin=True)
    cost = [0] * len(rows[0])
    cost[2 * n] = 1
    result = _simplex_max(rows, rhs, cost)
    if result is None:
        return None
    value, x = result
    if system.lt and value <= 0:
        return None
    return tuple(x[j] - x[n + j] for j in range(n))


def lp_maximize(system, cost):
    """Maximize cost . x over a closed system (eq and le rows only).

    `cost` is a sequence of ints.  Returns (optimum, witness) with Fraction
    entries, or None when the system is infeasible.  Propagates
    ArithmeticError when unbounded.
    """
    if system.lt:
        raise ValueError("lp_maximize expects a closed system")
    n = system.n_vars
    (cost,) = _int_matrix([cost], "cost")
    if len(cost) != n:
        raise ValueError("cost length does not match n_vars")
    rows, rhs = _standard_form(system, margin=False)
    obj = cost + [-c for c in cost] + [0] * len(system.le)
    result = _simplex_max(rows, rhs, obj)
    if result is None:
        return None
    value, x = result
    return value, tuple(x[j] - x[n + j] for j in range(n))


def fourier_motzkin_feasible(system):
    """Variable elimination feasibility for the same systems as lp_feasible.

    Exponential in the worst case; used as an independent cross check at
    small dimension.
    """
    cons = set()

    def add(coeffs, rhs, strict):
        ints = reduce_content(coeffs + (rhs,))
        cons.add((ints[:-1], ints[-1], strict))

    for coeffs, b in system.eq:
        add(coeffs, b, False)
        add(tuple(-c for c in coeffs), -b, False)
    for coeffs, b in system.le:
        add(coeffs, b, False)
    for coeffs, b in system.lt:
        add(coeffs, b, True)

    n = system.n_vars
    remaining = list(range(n))
    while remaining:
        # eliminate the variable producing the fewest pairings
        def cost(v):
            pos = sum(1 for c, _, _ in cons if c[v] > 0)
            neg = sum(1 for c, _, _ in cons if c[v] < 0)
            return pos * neg
        var = min(remaining, key=cost)
        remaining.remove(var)
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        keep = {c for c in cons if c[0][var] == 0}
        for cp, bp, sp in pos:
            for cn, bn, sn in neg:
                p = cp[var]
                q = -cn[var]
                coeffs = tuple(q * x + p * y for x, y in zip(cp, cn))
                rhs = q * bp + p * bn
                ints = reduce_content(coeffs + (rhs,))
                keep.add((ints[:-1], ints[-1], sp or sn))
        cons = keep

    for coeffs, rhs, strict in cons:
        if strict:
            if not rhs > 0:
                return False
        elif not rhs >= 0:
            return False
    return True
