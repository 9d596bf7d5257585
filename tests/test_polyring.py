"""Tests for the sparse polynomial ring layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versal import (
    GradingError,
    ParseError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    VersalError,
    extend_with_parameters,
    format_expr,
    parameter_ring,
    parse_expr,
)
from versal.polyring import ratio

R2 = RingSpec(("x", "y"))
G2 = RingSpec(("x", "y"), (), ((1,), (1,)))
W2 = RingSpec(("x", "y"), (), ((3,), (2,)))
M3 = RingSpec(("x", "y", "z"), (), ((1, 0), (0, 1), (1, 1)))


def poly(text, ring=R2):
    return parse_expr(text, ring)


# -- hypothesis: ring axioms -----------------------------------------------

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def polys(draw, ring=R2, max_terms=5, max_exp=4):
    p = Polynomial.zero(ring)
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        mono = tuple(draw(st.integers(min_value=0, max_value=max_exp))
                     for _ in range(ring.nvars))
        p = p + Polynomial.from_monomial(ring, mono, draw(coeffs))
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    zero = Polynomial.zero(R2)
    one = Polynomial.one(R2)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a
    assert a - a == zero
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * one == a
    assert a * (b + c) == a * b + a * c
    assert a * zero == zero


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_format_parse_round_trip(a, b):
    p = a * b + a
    assert parse_expr(format_expr(p), R2) == p
    assert parse_expr(format_expr(p, compact=True), R2) == p


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_derivative_is_leibniz(a, b):
    da = a.partial_derivative("x")
    db = b.partial_derivative("x")
    assert (a * b).partial_derivative("x") == da * b + a * db


# -- hypothesis: coefficients against an all-Fraction reference ------------
#
# The reference keeps {monomial: Fraction} dicts and does each operation the
# plain way.  Polynomial must agree with it in value, and must store each
# coefficient as an int exactly when it is integral (never a float).

R3 = RingSpec(("y", "z", "x"))
scalars = st.one_of(st.integers(min_value=-6, max_value=6),
                    st.fractions(min_value=-6, max_value=6, max_denominator=4))
term_dicts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), scalars, max_size=4)


def ref_clean(d):
    return {m: c for m, c in d.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            dm = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[dm] = out.get(dm, Fraction(0)) + c * m[i]
    return ref_clean(out)


def ref_substitute(a, i, v):
    out = {}
    for m, c in a.items():
        dm = m[:i] + (0,) + m[i + 1:]
        out[dm] = out.get(dm, Fraction(0)) + c * Fraction(v) ** m[i]
    return ref_clean(out)


def ref_map_to_r3(a):
    # R2's x is R3's third variable and y its first
    return {(m[1], 0, m[0]): c for m, c in a.items()}


def assert_agrees(p, expected):
    assert p.terms_dict == expected
    for c in p.terms_dict.values():
        assert not isinstance(c, float)
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@settings(max_examples=80, deadline=None)
@given(term_dicts, term_dicts, scalars, st.integers(0, 3),
       st.sampled_from(["x", "y"]), scalars)
def test_coefficients_match_fraction_reference(ta, tb, q, n, var, v):
    a, b = Polynomial(R2, ta), Polynomial(R2, tb)
    ra = ref_clean({m: Fraction(c) for m, c in ta.items()})
    rb = ref_clean({m: Fraction(c) for m, c in tb.items()})
    i = R2.index(var)
    assert_agrees(a, ra)
    assert_agrees(a + b, ref_add(ra, rb))
    assert_agrees(a - b, ref_add(ra, rb, -1))
    assert_agrees(a * b, ref_mul(ra, rb))
    assert_agrees(a * q, ref_clean({m: c * q for m, c in ra.items()}))
    assert_agrees(q * a, ref_clean({m: c * q for m, c in ra.items()}))
    assert_agrees(a ** n, ref_pow(ra, n))
    assert_agrees(a.substitute({var: v}), ref_substitute(ra, i, v))
    assert_agrees(a.partial_derivative(var), ref_derivative(ra, i))
    assert_agrees(a.map_ring(R3), ref_map_to_r3(ra))


def test_integral_constant_has_one_form():
    forms = [Polynomial.constant(R2, 3),
             Polynomial.constant(R2, Fraction(6, 2)),
             parse_expr("3", R2)]
    for p in forms:
        assert p == forms[0]
        assert hash(p) == hash(forms[0])
        assert str(p) == "3"
        assert type(p.constant_term()) is int


def test_float_coefficients_refused():
    # 0.1 has no exact binary value; storing its nearest double as a
    # Fraction would silently change the input
    with pytest.raises(TypeError):
        Polynomial.constant(R2, 0.1)
    with pytest.raises(TypeError):
        Polynomial(R2, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        Polynomial.from_monomial(R2, (1, 0), 2.0)


def test_ratio_is_exact():
    assert ratio(6, 3) == 2 and type(ratio(6, 3)) is int
    assert ratio(-6, 4) == Fraction(-3, 2)
    assert type(ratio(Fraction(3, 2), Fraction(1, 2))) is int
    assert ratio(Fraction(3, 2), 2) == Fraction(3, 4)
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)
    with pytest.raises(TypeError):
        ratio(0.5, 2)


# -- explicit arithmetic ----------------------------------------------------

def test_basic_arithmetic():
    x, y = poly("x"), poly("y")
    assert (x + y) ** 2 == poly("x^2 + 2*x*y + y^2")
    assert (x - y) * (x + y) == poly("x^2 - y^2")
    assert 3 * x == poly("3*x")
    assert x * Fraction(1, 2) == poly("1/2*x")
    assert (x ** 0) == Polynomial.one(R2)
    assert bool(Polynomial.zero(R2)) is False
    assert bool(x) is True


def test_leading_term_grevlex():
    # graded reverse lexicographic: highest total degree first, ties broken
    # by smallest exponent on the last variable
    p = poly("x*y^2 + x^2*y + y^3")
    mono, coeff = p.leading_term()
    assert mono == (2, 1) and coeff == 1
    assert poly("x^3 + y^3").leading_term()[0] == (3, 0)


def test_sorted_terms_deterministic():
    p = poly("y + x + x*y + 1")
    assert [m for m, _ in p.sorted_terms()] == [(1, 1), (1, 0), (0, 1), (0, 0)]


def test_coefficient_lookup():
    p = poly("5*x^2*y - 7/3")
    assert p.coefficient((2, 1)) == 5
    assert p.coefficient((0, 0)) == Fraction(-7, 3)
    assert p.coefficient((1, 1)) == 0
    assert p.constant_term() == Fraction(-7, 3)


def test_substitute_scalars():
    p = poly("x^2 + y")
    assert p.substitute({"x": Fraction(2)}) == poly("y + 4")
    assert p.substitute({"x": Fraction(1, 2), "y": 1}) == poly("5/4")
    assert p.substitute({}) == p


def test_mixed_ring_operations_rejected():
    with pytest.raises(RingMismatchError):
        poly("x") + poly("x", G2)


# -- formatting -------------------------------------------------------------

def test_format_expr_layout():
    assert format_expr(poly("x^2 - y")) == "x^2 - y"
    assert format_expr(poly("-x + 1/2")) == "-x + 1/2"
    assert format_expr(Polynomial.zero(R2)) == "0"
    assert format_expr(poly("x^2 - y"), compact=True) == "x^2-y"
    assert format_expr(poly("-2*x*y^3")) == "-2*x*y^3"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_expr("x +* y", R2)
    with pytest.raises(ParseError):
        parse_expr("z + 1", R2)
    with pytest.raises(ParseError):
        parse_expr("x^(2)", R2)
    err = None
    try:
        parse_expr("x + 2y", R2)
    except ParseError as e:
        err = e
    assert err is not None and "column" in str(err)


# -- grading ----------------------------------------------------------------

def test_multi_degree():
    assert poly("x^2*y", G2).multi_degree() == (3,)
    assert poly("x*y", W2).multi_degree() == (5,)
    assert poly("x*y*z", M3).multi_degree() == (2, 2)
    assert Polynomial.zero(G2).multi_degree() is None
    assert poly("x^2 + y", G2).multi_degree() is None  # inhomogeneous
    assert poly("x^2 + y^3", W2).is_homogeneous()


def test_ungraded_ring_has_no_grading():
    assert not R2.is_graded
    assert G2.is_graded and G2.grading_rank == 1
    assert M3.grading_rank == 2


def test_grading_rank_must_be_consistent():
    with pytest.raises(GradingError):
        RingSpec(("x", "y"), (), ((1,), (1, 2)))


# -- parameter machinery ----------------------------------------------------

def test_extend_with_parameters_graded():
    St, names = extend_with_parameters(G2, 3, degrees=((1,), (2,), (1,)))
    assert names == ("t1", "t2", "t3")
    assert St.t_vars == names and St.x_vars == G2.x_vars
    p = parse_expr("x*t1 + t2", St)
    assert p.multi_degree() == (2,)
    assert p.t_degree() == 1
    assert parse_expr("t1 + t2", St).is_t_homogeneous()
    assert not parse_expr("t1 + t1*t2", St).is_t_homogeneous()


def test_extend_requires_degrees_on_graded_ring():
    with pytest.raises(GradingError):
        extend_with_parameters(G2, 2)
    # ungraded base: no degrees needed
    St, _ = extend_with_parameters(R2, 2)
    assert St.t_vars == ("t1", "t2") and not St.is_graded


def test_extend_avoids_name_collisions():
    base = RingSpec(("t1", "u"))
    St, names = extend_with_parameters(base, 2)
    assert set(names).isdisjoint({"t1", "u"})
    assert len(set(St.x_vars) | set(St.t_vars)) == 4


def test_t_pieces_and_truncation():
    St, _ = extend_with_parameters(R2, 2)
    p = parse_expr("x + y*t1 + t1*t2 + t2^3", St)
    assert p.t_order() == 0
    assert p.t_piece(0) == parse_expr("x", St)
    assert p.t_piece(1) == parse_expr("y*t1", St)
    assert p.t_piece(2) == parse_expr("t1*t2", St)
    assert p.t_truncate(2) == parse_expr("x + y*t1 + t1*t2", St)
    assert p.t_truncate(0) == parse_expr("x", St)
    assert Polynomial.zero(St).t_order() is None


def test_parameter_ring_strips_x_grading():
    St, _ = extend_with_parameters(G2, 2, degrees=((1,), (1,)))
    T = parameter_ring(St)
    assert T.x_vars == ("t1", "t2")
    assert T.is_graded and T.x_degrees == ((1,), (1,))


def test_map_ring_by_name():
    St, _ = extend_with_parameters(R2, 1)
    p = poly("x^2 - y")
    q = p.map_ring(St)
    assert q.ring is St and format_expr(q) == "x^2 - y"
    assert q.map_ring(R2) == p
    with pytest.raises(VersalError):
        parse_expr("t1", St).map_ring(R2)


def test_monomial_key_separates_blocks():
    # all x-monomials sort strictly above any monomial involving t of the
    # same x-part; within a block the order is grevlex
    St, _ = extend_with_parameters(R2, 1)
    x2 = parse_expr("x^2", St).leading_term()[0]
    x2t = parse_expr("x^2*t1", St).leading_term()[0]
    xt = parse_expr("x*t1", St).leading_term()[0]
    key = St.monomial_key
    assert key(x2t) > key(x2)
    p = parse_expr("x^2 + x^2*t1 + x*t1", St)
    assert p.leading_term()[0] == x2t
