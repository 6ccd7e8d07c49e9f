"""Exact integer and rational linear algebra.

Everything downstream of this module (polytopes, complexes, monomial
counting) is decided, never approximated: no floating point anywhere.  The
matrices, systems and costs this module takes are integral, since the cells
are cut out by integer rows; each entry point checks once that every entry
is an `int` and raises ValueError naming the first that is not.

Matrices are plain lists of lists in row major order; vectors are lists or
tuples.  One integer elimination, `column_echelon`, brings a matrix to
column echelon form by unimodular column operations; `det` and
`rational_rank` read their answers off it, and polytopes read their
hull equalities and lattice coordinates off it; `staircase_basis` maps
those coordinates back to lattice points.  `rref`,
`rational_kernel` and `solve_rational` eliminate over Fraction and serve
the tests as independent references.  The structured pieces are
`LinearSystem` (a block of equalities, weak inequalities and strict
inequalities), the LP entry points `lp_feasible` and `lp_maximize`, and
`fourier_motzkin_feasible`, an independent elimination based feasibility
test used to cross check them.  `check_dilation` is the one test of a
dilation factor k that every counting route applies, the brute-force
oracles included.

Both LP entry points share one two phase simplex with Bland's rule.  It
keeps an integer tableau T and one common denominator d > 0, the rational
tableau being T / d, and pivots fraction free (Edmonds 1967, Bareiss 1968):
every entry stays, up to sign, a minor of the input, so each division is
exact and Fractions appear only in the returned optimum and witness.  A
closed system is decided by phase 1 alone; only strict rows add the shared
margin eps, which phase 2 then maximizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import mul


class InvariantError(RuntimeError):
    """An invariant the mathematics guarantees failed to hold.

    Raised where an `assert` would do, because `python -O` strips asserts.
    """


def check_dilation(k, least=1):
    """Refuse a dilation factor k that is not an int >= least, or a bool."""
    if isinstance(k, bool) or not isinstance(k, int) or k < least:
        raise ValueError(
            f"dilation factor k must be an int >= {least}, got {k!r}")


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


def dot(a, b):
    return sum(map(mul, a, b))


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


def column_echelon(m, ncols):
    """Unimodular column reduction of an integer matrix: (pivots, sign, u).

    Row by row, Euclid's algorithm on the columns past the earlier pivots
    (swap the least nonzero entry to the pivot seat, reduce the others by
    it, repeat) leaves one nonzero entry, the row's pivot, or none.  This is
    the Hermite normal form without its off-diagonal reduction (Cohen 1993,
    section 2.4).  `u` holds the columns of a unimodular matrix U, and
    sign = det U.  In m U the pivots sit on a staircase in the first
    len(pivots) columns, with zeros above them, and the other columns are
    zero.
    """
    a = _int_matrix(m)
    for i, row in enumerate(a):
        if len(row) != ncols:
            raise ValueError(
                f"matrix row [{i}] has {len(row)} entries, not {ncols}")
    # column j of [m; I], the identity written in after the transpose
    k = len(a)
    cols = ([[*col, *[0] * ncols] for col in zip(*a)] if a
            else [[0] * ncols for _ in range(ncols)])
    for j, col in enumerate(cols):
        col[k + j] = 1
    pivots, sign = [], 1
    for i in range(k):
        r = len(pivots)
        while True:
            # the first live column of least absolute entry, and the count
            j, least, live = r, 0, 0
            for c in range(r, ncols):
                x = cols[c][i]
                if x:
                    live += 1
                    if not least or abs(x) < least:
                        j, least = c, abs(x)
            if not live:
                break
            if j != r:
                cols[r], cols[j] = cols[j], cols[r]
                sign = -sign
            if live == 1:
                pivots.append(cols[r][i])
                break
            piv = cols[r]
            p = piv[i]
            for j in range(r + 1, ncols):
                q = cols[j][i] // p
                if q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], piv)]
    return pivots, sign, [col[k:] for col in cols]


def staircase_basis(points, coords, what):
    """Columns of the lattice basis B with p - p0 = y B for each point p.

    p0 is the first point, and `coords` holds y for each p: the first d
    entries of z U, z = p - p0, U from `column_echelon` of the rows z, where
    they sit on a staircase.  As U is unimodular, y maps the lattice points
    of the span of the z one to one onto Z^d, and B_j, the one with y = e_j,
    is integral.  The row z_j that opens pivot column j gives it by forward
    substitution, B_j = (z_j - sum_{i<j} y_j[i] B_i) / y_j[j], each division
    exact.  The len(p0) columns come back with d entries each, so d = 0
    keeps every coordinate.  InvariantError naming `what` on a remainder or
    a missing pivot row.
    """
    p0, d = points[0], len(coords[0])
    basis = []
    for p, y in zip(points, coords):
        j = len(basis)
        if j < d and y[j]:
            z = [x - o for x, o in zip(p, p0)]
            for yi, b in zip(y, basis):
                z = [x - yi * c for x, c in zip(z, b)]
            quotients = [divmod(x, y[j]) for x in z]
            if any(r for _, r in quotients):
                raise InvariantError(f"pivot row {j} of the staircase of "
                                     f"{what} leaves a remainder")
            basis.append([q for q, _ in quotients])
    if len(basis) != d:
        raise InvariantError(f"the staircase of {what} misses a pivot row")
    return [tuple(b[c] for b in basis) for c in range(len(p0))]


def det(m):
    """Exact determinant of a square integer matrix."""
    if any(len(row) != len(m) for row in m):
        raise ValueError("det needs a square matrix")
    pivots, sign, _ = column_echelon(m, len(m))
    return sign * prod(pivots) if len(pivots) == len(m) else 0


def rational_rank(rows):
    """Rank over the rationals of an integer matrix: the pivot count."""
    return len(column_echelon(rows, len(rows[0]) if rows else 0)[0])


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


def _standard_form(system):
    """Integer rows of A z = b, z >= 0 for `system`, with x = u - w.

    Columns: u_0..u_{n-1}, w_0..w_{n-1}, the strict margin eps when there
    are lt rows, one slack per le row, then one slack per lt row and the
    slack of the cap eps <= 1.  Returns (rows, rhs).
    """
    n = system.n_vars
    first = 2 * n + bool(system.lt)
    n_le = len(system.le)
    width = first + n_le + (len(system.lt) + 1 if system.lt else 0)
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
    if system.lt:
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

    A closed system needs phase 1 alone.  Strict rows share a margin eps
    (capped at 1), which is maximized: the system is strictly feasible iff
    the optimum is positive.  Returns a rational point or None.
    """
    n = system.n_vars
    rows, rhs = _standard_form(system)
    cost = [0] * (len(rows[0]) if rows else 2 * n)
    if system.lt:
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
    rows, rhs = _standard_form(system)
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
