"""Tests for Groebner bases, syzygies and graded pieces.

sympy serves as an independent oracle for scalar ideals; module-level
results are checked against hand-computed examples and structural
identities (F * syz(F) = 0, Schreyer completeness, Koszul containment).
"""

import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from versal import (
    FiniteDimError,
    Polynomial,
    PolyMatrix,
    RingSpec,
    as_generator_matrix,
    buchberger,
    format_expr,
    hilbert_function,
    kernel_mod_ideal,
    koszul_syzygies,
    module_quotient_lift,
    monomials_of_degree,
    parse_expr,
    standard_monomials,
    syzygy_matrix,
)

R3 = RingSpec(("x", "y", "z"), (), ((1,),) * 3)
SYMS = sympy.symbols("x y z")


def poly(text, ring=R3):
    return parse_expr(text, ring)


def to_sympy(p):
    expr = sympy.Integer(0)
    for mono, c in p.terms_dict.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for e, s in zip(mono, SYMS):
            term *= s ** e
        expr += term
    return expr


def random_ideal(rng, count=3, max_degree=3):
    gens = []
    monos = [m for d in range(max_degree + 1)
             for m in monomials_of_degree(R3, (d,))]
    while len(gens) < count:
        p = Polynomial.zero(R3)
        for _ in range(rng.randint(1, 4)):
            mono = rng.choice(monos)
            p = p + Polynomial.from_monomial(R3, mono, rng.randint(-3, 3))
        if not p.is_zero():
            gens.append(p)
    return gens


# -- scalar Groebner bases, cross-checked against sympy ---------------------

def test_reduced_basis_matches_sympy_on_random_ideals():
    rng = random.Random(7)
    for _ in range(12):
        gens = random_ideal(rng)
        ours = {to_sympy(p) for p in buchberger(gens).polynomials()}
        theirs = set(sympy.groebner([to_sympy(g) for g in gens], *SYMS,
                                    order="grevlex", domain=sympy.QQ).exprs)
        assert ours == theirs


def test_membership_agrees_with_sympy_reduction():
    rng = random.Random(19)
    for _ in range(8):
        gens = random_ideal(rng, count=2)
        gb = buchberger(gens)
        sgb = sympy.groebner([to_sympy(g) for g in gens], *SYMS,
                             order="grevlex", domain=sympy.QQ)
        for _ in range(4):
            q = random_ideal(rng, count=1)[0]
            assert gb.contains(q) == (sgb.reduce(to_sympy(q))[1] == 0)


def test_combinations_of_generators_are_members():
    rng = random.Random(23)
    gens = random_ideal(rng)
    gb = buchberger(gens)
    h = Polynomial.zero(R3)
    for g, a in zip(gens, random_ideal(rng)):
        h = h + a * g
    assert gb.contains(h)
    assert gb.normal_form(h).is_zero()


def test_known_basis_twisted_cubic():
    # parametrized by (s, s^2, s^3); the reduced grevlex basis is the set
    # of 2x2 minors of [[x, y], [y, z]] together with x^2 - y
    gb = buchberger([poly("x^2 - y"), poly("x^3 - z")])
    assert {format_expr(p) for p in gb.polynomials()} == \
        {"y^2 - x*z", "x*y - z", "x^2 - y"}


def test_normal_form_cofactors_reconstruct_input():
    rng = random.Random(31)
    gens = random_ideal(rng)
    gb = buchberger(gens, track=True)
    q = random_ideal(rng, count=1)[0]
    nf, cofs = gb.normal_form(q, with_cofactors=True)
    rebuilt = nf
    for c, g in zip(cofs, gens):
        rebuilt = rebuilt + c * g
    assert rebuilt == q
    # the normal form has no term divisible by a leading term
    leads = [m for _, m in gb.leading_terms()]
    for mono in nf.terms_dict:
        assert not any(all(a <= b for a, b in zip(lm, mono)) for lm in leads)


def test_tracked_expressions_reproduce_elements():
    rng = random.Random(37)
    gens = random_ideal(rng)
    gb = buchberger(gens, track=True)
    for elem, expr in zip(gb.elements, gb.expressions()):
        total = Polynomial.zero(R3)
        for idx, cof in expr.items():
            total = total + cof * gens[idx]
        assert total == elem[0]


def test_unit_ideal():
    gb = buchberger([poly("x"), poly("x + 1")])
    assert gb.contains(Polynomial.one(R3))
    assert not gb.is_finite_quotient() or gb.standard_module_monomials() == []


# -- module Groebner bases and syzygies -------------------------------------

def quartic_cone_matrix():
    ring = RingSpec(tuple("x%d" % i for i in range(5)), (), ((1,),) * 5)
    g = ["-x1^2 + x0*x2", "-x1*x2 + x0*x3", "-x2^2 + x1*x3",
         "-x1*x3 + x0*x4", "-x2*x3 + x1*x4", "-x3^2 + x2*x4"]
    return as_generator_matrix([parse_expr(s, ring) for s in g])


def test_syzygies_annihilate_and_are_minimal():
    F = quartic_cone_matrix()
    S = syzygy_matrix(F)
    assert (F * S).is_zero()
    assert S.cols == 8  # first Betti number of the cone over the quartic curve
    # the resolution is linear: every syzygy entry has degree 1
    for j in range(S.cols):
        for i in range(S.rows):
            e = S[i, j]
            assert e.is_zero() or e.multi_degree() == (1,)


def test_koszul_syzygies_lie_in_syzygy_module():
    F = quartic_cone_matrix()
    S = syzygy_matrix(F)
    K = koszul_syzygies(F)
    assert (F * K).is_zero()
    assert K.cols == 15  # one per unordered pair of the 6 generators
    gb = buchberger(S)
    for j in range(K.cols):
        assert not any(gb.normal_form(K.column(j)))


def test_syzygy_matrix_of_regular_sequence_is_koszul():
    R2 = RingSpec(("x", "y"), (), ((1,), (1,)))
    F = as_generator_matrix([parse_expr("x^2", R2), parse_expr("y^2", R2)])
    S = syzygy_matrix(F)
    assert S.cols == 1
    assert (F * S).is_zero()
    col = [S[0, 0], S[1, 0]]
    assert {format_expr(col[0]), format_expr(col[1])} == {"y^2", "-x^2"} or \
           {format_expr(col[0]), format_expr(col[1])} == {"-y^2", "x^2"}


def random_fraction_poly(rng, count=2, max_degree=2):
    monos = [m for d in range(max_degree + 1)
             for m in monomials_of_degree(R3, (d,))]
    p = Polynomial.zero(R3)
    for _ in range(count):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        p = p + Polynomial.from_monomial(R3, rng.choice(monos), c)
    return p


def module_combination(cofs, columns):
    total = [Polynomial.zero(R3)] * len(columns[0])
    for cof, col in zip(cofs, columns):
        total = [t + cof * p for t, p in zip(total, col)]
    return total


def test_tracked_rank2_module_basis_with_fractions_and_zero_column():
    rng = random.Random(3)
    zero = Polynomial.zero(R3)
    cols = [[random_fraction_poly(rng), random_fraction_poly(rng)]
            for _ in range(3)]
    cols.insert(1, [zero, zero])
    assert any(c.denominator > 1 for col in cols for p in col
               for c in p.terms_dict.values())
    gb = buchberger(PolyMatrix.from_columns(R3, 2, cols), track=True)
    assert gb.n_generators == 4 and len(gb) > 3
    # every element is its expression in the generators
    for elem, expr in zip(gb.elements, gb.expressions()):
        assert 1 not in expr  # the zero column takes no part
        cofs = [expr.get(i, zero) for i in range(len(cols))]
        assert module_combination(cofs, cols) == elem
    # a random column is its normal form plus the cofactor combination
    v = [random_fraction_poly(rng, 3, 3), random_fraction_poly(rng, 3, 3)]
    nf, cofs = gb.normal_form(v, with_cofactors=True)
    assert len(cofs) == 4 and cofs[1].is_zero()
    rebuilt = module_combination(cofs, cols)
    assert [a + b for a, b in zip(nf, rebuilt)] == v
    # monic and tail-reduced: no term but its own lead is divisible by a lead
    leads = gb.leading_terms()
    for elem, (lpos, lmono) in zip(gb.elements, leads):
        assert elem[lpos].terms_dict[lmono] == 1
        for pos, p in enumerate(elem):
            for mono in p.terms_dict:
                if (pos, mono) == (lpos, lmono):
                    continue
                assert not any(q == pos and all(a <= b for a, b in zip(m, mono))
                               for q, m in leads)
    # a zero entry of a row has its unit vector as a syzygy
    F = PolyMatrix(R3, [[cols[0][0], zero, cols[2][1]]])
    S = syzygy_matrix(F)
    assert (F * S).is_zero()
    assert [zero, Polynomial.one(R3), zero] in S.columns()


def test_module_quotient_lift_round_trip():
    rng = random.Random(41)
    gens = random_ideal(rng)
    A = as_generator_matrix(gens)
    X0 = PolyMatrix(R3, [[random_ideal(rng, count=1)[0]] for _ in gens])
    B = A * X0
    X = module_quotient_lift(A, B)
    assert X is not None and (A * X - B).is_zero()


def test_module_quotient_lift_detects_failure():
    R2 = RingSpec(("x", "y"), (), ((1,), (1,)))
    A = as_generator_matrix([parse_expr("x", R2)])
    B = as_generator_matrix([parse_expr("y", R2)])
    assert module_quotient_lift(A, B) is None


def test_kernel_mod_ideal():
    R2 = RingSpec(("x", "y"), (), ((1,), (1,)))
    x = parse_expr("x", R2)
    M = as_generator_matrix([x])
    K = kernel_mod_ideal(M, buchberger([x * x]))
    gb = buchberger(K)
    assert gb.contains(x)  # x * x = x^2 lies in the ideal


# -- counting: Hilbert functions and graded pieces --------------------------

def test_monomials_of_degree_counts():
    for d in range(5):
        assert len(monomials_of_degree(R3, (d,))) == comb(d + 2, 2)


def test_monomials_of_degree_memoised_per_ring():
    ring = RingSpec(("x", "y", "z"), (), ((1,),) * 3)
    first = monomials_of_degree(ring, (3,))
    # one shared answer per (ring, degree), which no caller can change
    assert isinstance(first, tuple)
    assert monomials_of_degree(ring, 3) is first
    assert monomials_of_degree(R3, (3,)) == first
    assert monomials_of_degree(ring, (-1,)) == ()


def test_hilbert_function_hyperplane():
    gb = buchberger([poly("x")])
    for d in range(5):
        # S/(x) is a polynomial ring in two variables
        assert hilbert_function(gb, (d,)) == d + 1


def test_hilbert_function_quartic_cone():
    F = quartic_cone_matrix()
    gb = buchberger([F[0, j] for j in range(F.cols)])
    values = [hilbert_function(gb, (d,)) for d in range(6)]
    # cone over the degree-4 rational normal curve: 1, then 4d + 1
    assert values == [1, 5, 9, 13, 17, 21]


def diagonal_ring_and_gens():
    names = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")
    degs = tuple([(1, 0, 0)] * 3 + [(0, 1, 0)] * 3 + [(0, 0, 1)] * 3)
    ring = RingSpec(names, (), degs)
    gens = [parse_expr(s, ring) for s in
            ["y1*z2", "x1*z2", "y2*z1", "y1*z1", "x2*z1", "x1*z1",
             "x1*y2", "x2*y1", "x1*y1", "x2*y2*z2"]]
    return ring, gens


def test_multigraded_hilbert_function_matches_diagonal():
    ring, gens = diagonal_ring_and_gens()
    gb = buchberger(gens)
    # quotient carries the Hilbert function of the small diagonal plane:
    # H(a, b, c) = dim of forms of total degree a+b+c on the plane
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert hilbert_function(gb, (a, b, c)) == \
                    comb(a + b + c + 2, 2)


def test_standard_monomials_degree_011():
    ring, gens = diagonal_ring_and_gens()
    gb = buchberger(gens)
    std = standard_monomials(gb, (0, 1, 1))
    found = {format_expr(Polynomial.from_monomial(ring, m)) for m in std}
    assert found == {"y1*z3", "y2*z2", "y2*z3", "y3*z1", "y3*z2", "y3*z3"}


def test_infinite_staircase_detected():
    R2 = RingSpec(("x", "y"), (), ((1,), (1,)))
    gb = buchberger([parse_expr("x^2", R2)])
    assert not gb.is_finite_quotient()
    with pytest.raises(FiniteDimError):
        gb.standard_module_monomials()


# -- PolyMatrix structure ---------------------------------------------------

def test_matrix_degree_bookkeeping():
    F = quartic_cone_matrix()
    assert F.rows == 1 and F.cols == 6
    assert F.col_degrees == ((2,),) * 6
    Ft = F.transpose()
    assert Ft.row_degrees == tuple((-d[0],) for d in F.col_degrees)
    S = syzygy_matrix(F)
    assert S.row_degrees == F.col_degrees


def test_empty_matrix_shapes_survive_arithmetic():
    ring = R3
    A = PolyMatrix.zero(ring, 0, 3)
    assert A.cols == 3 and A.rows == 0
    assert A.transpose().rows == 3 and A.transpose().cols == 0
    B = PolyMatrix.zero(ring, 2, 0)
    C = B * A  # (2x0) * (0x3) = zero 2x3
    assert C.rows == 2 and C.cols == 3 and C.is_zero()
    assert (A + A).cols == 3
    assert (-A).cols == 3
    D = PolyMatrix.from_columns(ring, 0, [])
    assert D.rows == 0 and D.cols == 0


def test_matrix_stacking():
    R2 = RingSpec(("x", "y"), (), ((1,), (1,)))
    A = as_generator_matrix([parse_expr("x", R2)])
    B = as_generator_matrix([parse_expr("y", R2)])
    H = A.hstack(B)
    assert H.rows == 1 and H.cols == 2
    V = A.vstack(B)
    assert V.rows == 2 and V.cols == 1


def test_graded_module_buchberger_respects_row_degrees():
    # all row twists of syz(F) are equal, so a homogeneous module element
    # has all its nonzero components of one common degree
    F = quartic_cone_matrix()
    S = syzygy_matrix(F)
    gb = buchberger(S)
    for elem in gb.elements:
        degs = {p.multi_degree() for p in elem if not p.is_zero()}
        assert len(degs) == 1 and None not in degs
