"""Tests for tangent and obstruction space computations."""

from pathlib import Path

import pytest

from versal import (
    FiniteDimError,
    GradingError,
    RingSpec,
    as_generator_matrix,
    buchberger,
    cotangent1,
    cotangent2,
    first_syzygies,
    jacobian_matrix,
    load_input,
    normal_matrix,
    parse_expr,
)
from versal.cotangent import (
    _ideal_unit_columns,
    _koszul_data,
    _strip_degrees,
    ideal_basis,
)
from versal.groebner import (
    PolyMatrix,
    _preimage_basis,
    _syzygy_columns,
    kernel_mod_ideal,
)


DIAGONAL_FILE = (Path(__file__).resolve().parents[1]
                 / "demos" / "data" / "diagonal_p2cubed.vdef")


def gens_matrix(ring, texts):
    return as_generator_matrix([parse_expr(s, ring) for s in texts])


def quartic_cone():
    ring = RingSpec(tuple("x%d" % i for i in range(5)), (), ((1,),) * 5)
    return gens_matrix(ring, [
        "-x1^2 + x0*x2", "-x1*x2 + x0*x3", "-x2^2 + x1*x3",
        "-x1*x3 + x0*x4", "-x2*x3 + x1*x4", "-x3^2 + x2*x4"])


def diagonal():
    names = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")
    degs = tuple([(1, 0, 0)] * 3 + [(0, 1, 0)] * 3 + [(0, 0, 1)] * 3)
    ring = RingSpec(names, (), degs)
    return gens_matrix(ring, [
        "y1*z2", "x1*z2", "y2*z1", "y1*z1", "x2*z1", "x1*z1",
        "x1*y2", "x2*y1", "x1*y1", "x2*y2*z2"])


# -- cone over the rational normal quartic ----------------------------------

def test_cone_tangent_space():
    t1 = cotangent1(quartic_cone())
    assert t1.dimension == 4
    assert t1.degrees == ((-1,),) * 4


def test_cone_obstruction_space():
    t2 = cotangent2(quartic_cone())
    assert t2.dimension == 3
    assert t2.degrees == ((-2,),) * 3


def test_cone_normal_module_piece():
    # degree -1 piece of the normal module: the 4 tangent directions plus
    # the 5-dimensional image of the coordinate derivations
    nm = normal_matrix(quartic_cone(), (-1,))
    assert nm.dimension == 9


def test_cone_tangent_vectors_are_cocycles():
    # each tangent column v gives first-order flatness: F0 + eps*v lifts,
    # i.e. v pairs to zero with every first syzygy modulo the ideal
    F0 = quartic_cone()
    R0 = first_syzygies(F0)
    t1 = cotangent1(F0)
    gb = buchberger([F0[0, j] for j in range(F0.cols)])
    prod = t1.vectors.transpose() * R0
    for i in range(prod.rows):
        for j in range(prod.cols):
            assert gb.normal_form(prod[i, j]).is_zero()


def test_cone_first_syzygies():
    R0 = first_syzygies(quartic_cone())
    assert R0.cols == 8
    assert (quartic_cone() * R0).is_zero()


# -- subquotient presentation -----------------------------------------------

def subquotient_inputs(F0):
    """(U, W) of the local T1 and T2 presentations, as the cotangent module
    builds them: P = {a : U a in span W} presents each space."""
    ring = F0.ring
    gbI = ideal_basis(F0)
    gens = gbI.polynomials()
    R0 = first_syzygies(F0)
    U1 = kernel_mod_ideal(_strip_degrees(R0.transpose()), gbI)
    W1 = jacobian_matrix(F0).columns() + _ideal_unit_columns(ring, gens, F0.cols)
    K, lam, B = _koszul_data(F0)
    cond = lam.hstack(B) if B.cols else lam
    U2 = kernel_mod_ideal(_strip_degrees(cond.transpose()), gbI)
    W2 = R0.transpose().columns() + _ideal_unit_columns(ring, gens, R0.cols)
    return [(U1, W1), (U2, W2)]


@pytest.mark.parametrize("make", [
    quartic_cone,
    # not homogeneous, so grevlex alone does not separate the two blocks
    lambda: gens_matrix(RingSpec(("x", "y")), ["x^2 - y^3", "x*y"]),
], ids=["cone", "ungraded_ci"])
def test_preimage_basis_matches_syzygy_route(make):
    # oracle: P from the raw syzygies of [U | W], cut to U's coordinates
    for U, W in subquotient_inputs(make()):
        block = PolyMatrix.from_columns(U.ring, U.rows, U.columns() + W)
        P = PolyMatrix.from_columns(
            U.ring, U.cols, _syzygy_columns(block, rep_window=U.cols))
        old = buchberger(P)
        new = _preimage_basis(U, W)
        assert new.leading_terms() == old.leading_terms()
        assert new.elements == old.elements


# -- hypersurfaces ----------------------------------------------------------

def test_cusp_tangent_dimension_and_weights():
    ring = RingSpec(("x", "y"), (), ((3,), (2,)))
    F0 = gens_matrix(ring, ["x^2 - y^3"])
    t1 = cotangent1(F0)
    assert t1.dimension == 2
    assert sorted(t1.degrees) == [(-6,), (-4,)]
    t2 = cotangent2(F0)
    assert t2.dimension == 0


def test_cusp_ungraded():
    ring = RingSpec(("x", "y"))
    F0 = gens_matrix(ring, ["x^2 - y^3"])
    t1 = cotangent1(F0)
    assert t1.dimension == 2
    assert t1.degrees is None


def test_smooth_hypersurface_is_rigid():
    ring = RingSpec(("x", "y"))
    F0 = gens_matrix(ring, ["x"])
    assert cotangent1(F0).dimension == 0


def test_non_isolated_singularity_rejected():
    ring = RingSpec(("x", "y"))
    F0 = gens_matrix(ring, ["x^2*y^2"])
    with pytest.raises(FiniteDimError):
        cotangent1(F0)


# closed forms: the simple germs, whose T1 dimension is the Tjurina number
# and which, as hypersurfaces, are unobstructed
SIMPLE_GERMS = (
    [("A%d" % k, "x^2 + y^%d" % (k + 1), k) for k in range(1, 7)]
    + [("D%d" % k, "x^2*y + y^%d" % (k - 1), k) for k in range(4, 8)]
    + [("E6", "x^3 + y^4", 6), ("E7", "x^3 + x*y^3", 7),
       ("E8", "x^3 + y^5", 8)])


@pytest.mark.parametrize("germ, tau", [g[1:] for g in SIMPLE_GERMS],
                         ids=[g[0] for g in SIMPLE_GERMS])
def test_simple_germ_tjurina_number(germ, tau):
    F0 = gens_matrix(RingSpec(("x", "y")), [germ])
    assert cotangent1(F0).dimension == tau
    assert cotangent2(F0).dimension == 0


# -- complete intersection --------------------------------------------------

def test_complete_intersection_unobstructed():
    ring = RingSpec(("x", "y"), (), ((1,), (1,)))
    F0 = gens_matrix(ring, ["x^2", "y^2"])
    assert cotangent1(F0).dimension == 4
    assert cotangent2(F0).dimension == 0


# -- multigraded Hilbert scheme germ ----------------------------------------

def test_diagonal_normal_module_degree_zero():
    nm = normal_matrix(diagonal(), (0, 0, 0))
    assert nm.dimension == 18
    assert nm.degrees == ((0, 0, 0),) * 18


def test_diagonal_obstruction_degree_zero():
    t2 = cotangent2(diagonal(), (0, 0, 0))
    assert t2.dimension == 8


def test_diagonal_first_syzygies():
    R0 = first_syzygies(diagonal())
    assert R0.cols == 20


def test_diagonal_graded_pieces_from_input_file():
    # the graded kernels of the demo input, pinned layer by layer: each
    # normal-module column v must pair to zero with every first syzygy
    # modulo the ideal (v^T * R0 = 0 in S/I)
    F0 = as_generator_matrix(load_input(DIAGONAL_FILE).generators)
    nm = normal_matrix(F0, (0, 0, 0))
    assert nm.dimension == 18
    assert cotangent1(F0, (0, 0, 0)).dimension == 9
    assert cotangent2(F0, (0, 0, 0)).dimension == 8
    R0 = first_syzygies(F0)
    gb = buchberger([F0[0, j] for j in range(F0.cols)])
    prod = nm.vectors.transpose() * R0
    for i in range(prod.rows):
        assert any(not p.is_zero() for p in nm.column(i))
        for j in range(prod.cols):
            assert gb.normal_form(prod[i, j]).is_zero()


def test_normal_matrix_requires_degree_tuple_of_right_rank():
    with pytest.raises(Exception):
        normal_matrix(diagonal(), (0,))


@pytest.mark.parametrize("space", [normal_matrix, cotangent1, cotangent2])
@pytest.mark.parametrize("degrees, degree", [
    (None, (1,)),              # the ring has no grading
    (((3,), (2,)), (1, 0)),    # the degree has the wrong rank
], ids=["ungraded", "wrong_rank"])
def test_bad_degree_rejected_without_syzygies(space, degrees, degree):
    # a hypersurface has no syzygies, so T2 has no slots; the degree is
    # still checked
    F0 = gens_matrix(RingSpec(("x", "y"), (), degrees), ["x^2 - y^3"])
    with pytest.raises(GradingError):
        space(F0, degree)


# -- jacobian ---------------------------------------------------------------

def test_jacobian_entries():
    ring = RingSpec(("x", "y"), (), ((1,), (1,)))
    F0 = gens_matrix(ring, ["x^2 - y^2", "x*y"])
    J = jacobian_matrix(F0)
    assert J.rows == 2 and J.cols == 2
    assert J[0, 0] == parse_expr("2*x", ring)
    assert J[0, 1] == parse_expr("-2*y", ring)
    assert J[1, 0] == parse_expr("y", ring)
    assert J[1, 1] == parse_expr("x", ring)
