"""Square-matrix contexts: determinants, adjugates, exact inversion, Cramer solving."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ringkit import (
    ModRing,
    QQ,
    ZZ,
    adjugate,
    cramer_solve,
    det,
    mat_inverse,
    matrix_ring,
    trace,
    transpose,
)
from ringkit.errors import (
    ContextMismatch,
    DeterminantNotUnit,
    ShapeMismatch,
    TooLarge,
)
from ringkit.poly import PolyRing

M9 = matrix_ring(ModRing(9), 2)
MZ = matrix_ring(ZZ, 2)

entries9 = st.integers(0, 8)
mats9 = st.lists(st.lists(entries9, min_size=2, max_size=2), min_size=2, max_size=2)


def test_inverse_fixture_mod_nine():
    a = M9.element([[2, 5], [8, 6]])
    inv = mat_inverse(a)
    assert inv.val == ((3, 5), (8, 7))
    assert (a * inv).val == ((1, 0), (0, 1))
    assert (inv * a).val == ((1, 0), (0, 1))


def test_scalar_summaries_fixture():
    a = M9.element([[2, 5], [8, 6]])
    assert det(a).val == 8
    assert trace(a).val == 8
    assert transpose(a).val == ((2, 8), (5, 6))
    assert adjugate(a).val == ((6, 4), (1, 2))


def test_noninvertible_matrix_reports_its_determinant():
    a = M9.element([[3, 0], [0, 1]])
    with pytest.raises(DeterminantNotUnit) as exc:
        mat_inverse(a)
    assert exc.value.det.val == 3


def test_construction_guards():
    # 32^4 Berkowitz steps exceed the work budget of 10^6, 31^4 do not
    with pytest.raises(TooLarge):
        matrix_ring(ZZ, 32)
    assert matrix_ring(ZZ, 31).n == 31
    with pytest.raises(ShapeMismatch):
        MZ.element([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeMismatch):
        MZ.element([[1, 2], [3]])
    with pytest.raises(ContextMismatch):
        M9.element([[1, 0], [0, 1]]) + MZ.element([[1, 0], [0, 1]])


def test_matrix_rings_are_noncommutative_beyond_dimension_one():
    x = MZ.element([[0, 1], [0, 0]])
    y = MZ.element([[0, 0], [1, 0]])
    assert (x * y).val != (y * x).val
    assert not MZ.is_commutative
    assert matrix_ring(ZZ, 1).is_commutative


@given(mats9)
@settings(max_examples=120)
def test_adjugate_identity_mod_nine(rows):
    a = M9.element(rows)
    d = det(a)
    left = a * adjugate(a)
    right = adjugate(a) * a
    scalar = M9.element([[d.val, 0], [0, d.val]])
    assert left == scalar and right == scalar


@given(mats9)
@settings(max_examples=120)
def test_inversion_succeeds_exactly_on_unit_determinants(rows):
    a = M9.element(rows)
    d = det(a)
    if ModRing(9).is_unit(d.val):
        inv = mat_inverse(a)
        assert (a * inv).val == ((1, 0), (0, 1))
        assert (inv * a).val == ((1, 0), (0, 1))
    else:
        with pytest.raises(DeterminantNotUnit):
            mat_inverse(a)


def test_transpose_is_an_involution_and_antihomomorphism():
    a = MZ.element([[1, 2], [3, 4]])
    b = MZ.element([[5, 6], [7, 8]])
    assert transpose(transpose(a)) == a
    assert transpose(a * b) == transpose(b) * transpose(a)


def test_determinant_is_multiplicative():
    a = M9.element([[2, 5], [8, 6]])
    b = M9.element([[1, 4], [7, 3]])
    assert det(a * b).val == (det(a) * det(b)).val


def test_cramer_fixture_over_the_integers():
    a = MZ.element([[2, 7], [1, 4]])
    sol = cramer_solve(a, [ZZ.element(-25), ZZ.element(-16)])
    assert [s.val for s in sol] == [12, -7]


def test_cramer_refuses_a_non_unit_determinant():
    M10 = matrix_ring(ModRing(10), 3)
    a = M10.element([[2, -7, 4], [4, 9, 6], [6, 2, -1]])
    rhs = [ModRing(10).element(v) for v in (3, 8, 1)]
    assert det(a).val == 4
    with pytest.raises(DeterminantNotUnit) as exc:
        cramer_solve(a, rhs)
    assert exc.value.det.val == 4


def test_the_refused_system_truly_has_no_solution():
    # exhaustive scan: the mod-10 system behind the fixture above is insoluble
    R = ModRing(10)
    rows = ((2, 3, 4), (4, 9, 6), (6, 2, 9))
    targets = (3, 8, 1)
    for x in range(10):
        for y in range(10):
            for z in range(10):
                if all((r[0] * x + r[1] * y + r[2] * z) % 10 == t
                       for r, t in zip(rows, targets)):
                    raise AssertionError(f"unexpected solution {(x, y, z)}")


def test_cramer_shape_guard():
    a = MZ.element([[1, 0], [0, 1]])
    with pytest.raises(ShapeMismatch):
        cramer_solve(a, [ZZ.element(1)])


@given(st.lists(st.lists(st.integers(0, 6), min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.integers(0, 6), min_size=3, max_size=3))
@settings(max_examples=60)
def test_cramer_solutions_satisfy_the_system(rows, rhs):
    F = ModRing(7)
    M = matrix_ring(F, 3)
    a = M.element(rows)
    if F.is_zero(det(a).val):
        with pytest.raises(DeterminantNotUnit):
            cramer_solve(a, [F.element(v) for v in rhs])
        return
    sol = cramer_solve(a, [F.element(v) for v in rhs])
    for i, row in enumerate(rows):
        acc = F.zero
        for j, coeff in enumerate(row):
            acc = F.add(acc, F.mul(F.element(coeff).val, sol[j].val))
        assert acc == F.element(rhs[i]).val


# -- Berkowitz against cofactor expansion, kept here only as the oracle

def _cofactor_det(base, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = base.zero
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1:] for row in rows[1:])
        term = base.mul(rows[0][j], _cofactor_det(base, minor))
        acc = base.add(acc, base.neg(term) if j % 2 else term)
    return acc


def _cofactor_adjugate(base, rows):
    n = len(rows)
    if n == 1:
        return ((base.one,),)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(row[:j] + row[j + 1:]
                          for r, row in enumerate(rows) if r != i)
            cof = _cofactor_det(base, minor)
            adj[j][i] = base.neg(cof) if (i + j) % 2 else cof
    return tuple(tuple(row) for row in adj)


ORACLE_BASES = [ZZ, ModRing(9), ModRing(12), ModRing(101)]


@st.composite
def square_matrices(draw, bases, sizes):
    base = draw(st.sampled_from(bases))
    n = draw(sizes)
    entries = st.integers(-30, 30) if base == ZZ else st.integers(0, base.n - 1)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return matrix_ring(base, n).element(rows)


@given(square_matrices(ORACLE_BASES, st.integers(1, 5)))
@settings(max_examples=80, deadline=None)
def test_det_and_adjugate_match_cofactor_expansion(a):
    base = a.ctx.base
    assert det(a).val == _cofactor_det(base, a.val)
    assert adjugate(a).val == _cofactor_adjugate(base, a.val)


@given(square_matrices([ModRing(12)], st.integers(3, 6)))
@settings(max_examples=40, deadline=None)
def test_adjugate_identity_over_zn12(a):
    scalar = a.ctx.embed(det(a).val)
    assert a * adjugate(a) == scalar
    assert adjugate(a) * a == scalar


@pytest.mark.parametrize("n", [6, 8])
def test_det_matches_sympy_over_the_integers(n):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(n)
    M = matrix_ring(ZZ, n)
    for _ in range(5):
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        assert det(M.element(rows)).val == int(sympy.Matrix(rows).det())


def test_singular_matrix_is_refused_before_the_adjugate(monkeypatch):
    import ringkit.matrix as rm

    muls, charpolys = [], []
    real_mul, real_charpoly = rm.MatrixRing.mul, rm._charpoly

    def counting_mul(self, a, b):
        muls.append(1)
        return real_mul(self, a, b)

    def counting_charpoly(base, rows):
        charpolys.append(1)
        return real_charpoly(base, rows)

    monkeypatch.setattr(rm.MatrixRing, "mul", counting_mul)
    monkeypatch.setattr(rm, "_charpoly", counting_charpoly)
    ctx = matrix_ring(ModRing(9), 6)
    rng = random.Random(4)
    rows = [[rng.randrange(9) for _ in range(6)] for _ in range(6)]
    rows[5] = [3 * x % 9 for x in rows[0]]  # det is a multiple of 3
    a = ctx.element(rows)
    d = det(a).val
    assert d % 3 == 0
    charpolys.clear()
    assert ctx.try_inverse(a.val) is None
    assert muls == []
    assert len(charpolys) == 1
    charpolys.clear()
    with pytest.raises(DeterminantNotUnit) as exc:
        mat_inverse(a)
    assert exc.value.det.val == d
    assert len(charpolys) == 1


def test_cramer_right_hand_side_must_live_in_the_base():
    A = matrix_ring(ZZ, 2).element([[2, 7], [1, 4]])
    with pytest.raises(ContextMismatch):
        cramer_solve(A, [QQ.element(1), 2])


def test_base_symbols_lift_to_scalar_matrices():
    M = matrix_ring(PolyRing(ZZ), 2)
    assert repr(M.parse_element("x*[[1,2],[3,4]]")) == "[[x,2*x],[3*x,4*x]]"
    assert M.parse_element("x") == M.element([[[0, 1], []], [[], [0, 1]]])
