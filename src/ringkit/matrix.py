"""Square matrices over a commutative ring, with exact inversion.

Payload: an n-tuple of n-tuples of base payloads, row major.  One
division-free path serves all of linear algebra: Berkowitz's algorithm
gives the characteristic polynomial with O(n^4) ring operations, using
only add, mul and neg, so it is exact over any commutative base,
zero divisors included.  The determinant is its constant term up to
sign, and Cayley-Hamilton turns the remaining coefficients into the
adjugate.  A matrix is invertible exactly when its determinant is a
unit of the base; the inverse is det^-1 times the adjugate, and
Cramer's rule solves linear systems as det^-1 (adj A) b under the same
condition, with the solution re-checked against the system before it
is returned.  Dimensions n > 31 put n^4 over the work budget.
"""

from .algebra import RING, Element, OverBase, context_of, payload_in
from .errors import (
    DeterminantNotUnit,
    InfiniteRing,
    InvalidParameters,
    ParseError,
    RingError,
    ShapeMismatch,
)
from .intutil import within_budget


class MatrixRing(OverBase):
    """n x n matrices over a commutative base context."""

    def __init__(self, base, n):
        super().__init__(base)
        if not base.is_commutative:
            raise InvalidParameters("matrix entries must commute")
        if not isinstance(n, int) or n < 1:
            raise InvalidParameters(f"dimension must be >= 1, got {n!r}")
        within_budget(n**4, f"Berkowitz steps for {n} x {n} matrices")
        self.width = within_budget(n * n * base.width, "matrix entries")
        self.n = n

    def _key(self):
        return ("Mat", self.base, self.n)

    def name(self):
        return f"Mat({self.base.name()},{self.n})"

    @property
    def is_commutative(self):
        return self.n == 1

    @property
    def level(self):
        return self.base.level if self.n == 1 else RING

    @property
    def zero(self):
        z = self.base.zero
        return tuple((z,) * self.n for _ in range(self.n))

    def lift(self, c):
        z = self.base.zero
        return tuple(
            tuple(c if i == j else z for j in range(self.n))
            for i in range(self.n))

    def canon(self, raw):
        try:
            rows = tuple(tuple(self.base.canon(x) for x in row)
                         for row in raw)
        except TypeError:
            raise RingError(f"expected rows of entries, got {raw!r}")
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ShapeMismatch(
                f"expected a {self.n} x {self.n} matrix")
        return rows

    def add(self, a, b):
        return tuple(
            tuple(self.base.add(x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a, b))

    def neg(self, a):
        return tuple(tuple(self.base.neg(x) for x in row) for row in a)

    def mul(self, a, b):
        # inline, not _dot per entry: that is 12-15 % slower (BENCH_17.json)
        base = self.base
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = base.zero
                for k in range(n):
                    acc = base.add(acc, base.mul(a[i][k], b[k][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def eq(self, a, b):
        return all(
            self.base.eq(x, y)
            for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    def hash_payload(self, a):
        return hash(tuple(
            tuple(self.base.hash_payload(x) for x in row) for row in a))

    def try_inverse(self, a):
        return _inverse_det(self, a)[0]

    def cardinality(self):
        c = self.base.cardinality()
        return None if c is None else c ** (self.n * self.n)

    def elements(self):
        if not self.base.is_finite:
            raise InfiniteRing(f"{self.name()} is not finite")
        import itertools

        n = self.n
        pool = list(self.base.elements())

        def gen():
            for flat in itertools.product(pool, repeat=n * n):
                yield tuple(flat[i * n:(i + 1) * n] for i in range(n))

        return gen()

    def literal(self, text):
        """A literal [[a,b,...],[c,d,...],...]."""
        from .parsing import group_items

        rows = group_items(text)
        if rows is None:
            return None
        out = []
        for part in rows:
            row = group_items(part)
            if not row:
                raise ParseError(f"expected a row [...], got {part!r}")
            out.append([self.base.parse(x) for x in row])
        return self.canon(out)

    def show(self, a):
        return "[" + ",".join(
            "[" + ",".join(self.base.show(x) for x in row) + "]"
            for row in a) + "]"


def _dot(base, xs, ys):
    acc = base.zero
    for x, y in zip(xs, ys):
        acc = base.add(acc, base.mul(x, y))
    return acc


def _charpoly(base, rows):
    """Coefficients [1, c1, ..., cn] of det(tI - A), by Berkowitz (1984).

    The polynomial grows one leading principal block at a time: bordering
    the r x r block M with column C, row R and corner a multiplies its
    coefficient vector by the lower-triangular Toeplitz matrix whose first
    column is (1, -a, -RC, -RMC, ..., -RM^(r-1)C).
    """
    poly = [base.one, base.neg(rows[0][0])]
    for r in range(1, len(rows)):
        row = rows[r][:r]
        v = [rows[i][r] for i in range(r)]
        col = [base.one, base.neg(rows[r][r]), base.neg(_dot(base, row, v))]
        for _ in range(r - 1):
            v = [_dot(base, rows[i][:r], v) for i in range(r)]
            col.append(base.neg(_dot(base, row, v)))
        poly = [_dot(base, col[i::-1], poly) for i in range(r + 2)]
    return poly


def _det_from(base, c):
    """det A = (-1)^n c_n from the characteristic polynomial [1, ..., c_n]."""
    return base.neg(c[-1]) if len(c) % 2 == 0 else c[-1]


def det_payload(base, rows):
    return _det_from(base, _charpoly(base, rows))


def _adjugate_from(ctx, rows, c):
    """adj A from the characteristic polynomial c of A.

    Cayley-Hamilton gives adj A = (-1)^(n-1) (A^(n-1) + c1 A^(n-2) + ...
    + c(n-1) I), evaluated by Horner's rule.
    """
    base, n = ctx.base, ctx.n
    adj = ctx.one
    for k in range(1, n):
        adj = tuple(
            tuple(base.add(x, c[k]) if i == j else x
                  for j, x in enumerate(row))
            for i, row in enumerate(ctx.mul(adj, rows)))
    return adj if n % 2 else ctx.neg(adj)


def _unit_adjugate(ctx, rows):
    """(det A, det A^-1, adj A) from one characteristic polynomial.

    When det A is not a unit the last two are None: the adjugate is
    built only for a unit determinant.
    """
    base = ctx.base
    c = _charpoly(base, rows)
    d = _det_from(base, c)
    dinv = base.try_inverse(d)
    if dinv is None:
        return d, None, None
    return d, dinv, _adjugate_from(ctx, rows, c)


def _inverse_det(ctx, rows):
    """(A^-1, or None when det A is not a unit, and det A)."""
    d, dinv, adj = _unit_adjugate(ctx, rows)
    if dinv is None:
        return None, d
    return tuple(tuple(ctx.base.mul(dinv, x) for x in row) for row in adj), d


def _not_unit(base, d):
    return DeterminantNotUnit(
        f"determinant {base.show(d)} is not a unit in {base.name()}",
        det=Element(base, d))


_NOT_MATRIX = "expected a matrix element, got {!r}"


def matrix_ring(base, n):
    return MatrixRing(base, n)


def det(a):
    ctx = context_of(a, MatrixRing, _NOT_MATRIX)
    return Element(ctx.base, det_payload(ctx.base, a.val))


def trace(a):
    ctx = context_of(a, MatrixRing, _NOT_MATRIX)
    acc = ctx.base.zero
    for i in range(ctx.n):
        acc = ctx.base.add(acc, a.val[i][i])
    return Element(ctx.base, acc)


def transpose(a):
    ctx = context_of(a, MatrixRing, _NOT_MATRIX)
    return Element(ctx, tuple(zip(*a.val)))


def adjugate(a):
    ctx = context_of(a, MatrixRing, _NOT_MATRIX)
    return Element(ctx, _adjugate_from(ctx, a.val, _charpoly(ctx.base, a.val)))


def mat_inverse(a):
    """det^-1 times the adjugate; the determinant must be a unit."""
    ctx = context_of(a, MatrixRing, _NOT_MATRIX)
    inv, d = _inverse_det(ctx, a.val)
    if inv is None:
        raise _not_unit(ctx.base, d)
    return Element(ctx, inv)


def cramer_solve(a, rhs):
    """Solve A x = b as det(A)^-1 (adj A) b when det(A) is a unit.

    The solution is substituted back into the system before returning;
    over a ring with zero divisors a non-unit determinant means Cramer
    gives no answer, and DeterminantNotUnit reports that determinant.
    """
    ctx = context_of(a, MatrixRing, _NOT_MATRIX)
    base = ctx.base
    b = [payload_in(base, x) for x in rhs]
    if len(b) != ctx.n:
        raise ShapeMismatch(f"expected {ctx.n} right-hand side entries")
    d, dinv, adj = _unit_adjugate(ctx, a.val)
    if dinv is None:
        raise _not_unit(base, d)
    out = [base.mul(dinv, _dot(base, row, b)) for row in adj]
    for row, y in zip(a.val, b):
        if not base.eq(_dot(base, row, out), y):
            raise RingError("Cramer solution failed verification")
    return [Element(base, x) for x in out]
