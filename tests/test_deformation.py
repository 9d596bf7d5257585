"""Tests for order-by-order construction of versal deformations.

The quartic-cone family and its base equations are classical results and
are asserted exactly; flatness of the family over its base is checked by
specializing the parameters to rational points and comparing staircase
sizes against the central fibre.
"""

from fractions import Fraction

import pytest

from versal import (
    LiftError,
    RingSpec,
    VersalError,
    as_generator_matrix,
    buchberger,
    format_expr,
    hilbert_function,
    parameter_ring,
    parse_expr,
    versal_deformation,
)
from versal import deformation
from versal.deformation import (
    MSG_FIRST_ORDER,
    MSG_LIFTING,
    MSG_ORDER,
    MSG_POLYNOMIAL,
    MSG_RELATIONS,
)


def cone_generators():
    ring = RingSpec(tuple("x%d" % i for i in range(5)), (), ((1,),) * 5)
    return [parse_expr(s, ring) for s in [
        "-x1^2 + x0*x2", "-x1*x2 + x0*x3", "-x2^2 + x1*x3",
        "-x1*x3 + x0*x4", "-x2*x3 + x1*x4", "-x3^2 + x2*x4"]]


def nonclosing_generators():
    ring = RingSpec(("x", "y", "z"), (), ((1,),) * 3)
    return [parse_expr(s, ring) for s in ["x^2", "y*z", "x*z^2"]]


def identity_defect(res):
    F, R = res.family(), res.relations()
    C, G = res.coefficient_matrix(), res.obstruction_equations()
    total = (F * R).transpose()
    if G.rows:
        total = total + C * G
    return total


def affine_staircase_profile(polys, upto):
    """Cumulative count of standard monomials by total degree <= k."""
    ring = polys[0].ring
    nz = [p for p in polys if not p.is_zero()]
    leads = [m for _, m in buchberger(nz).leading_terms()] if nz else []

    def blocked(mono):
        return any(all(a <= b for a, b in zip(l, mono)) for l in leads)

    def tuples(total_max, n):
        if n == 0:
            yield ()
            return
        for a in range(total_max + 1):
            for rest in tuples(total_max - a, n - 1):
                yield (a,) + rest

    per_degree = {}
    for mono in tuples(upto, ring.nvars):
        if not blocked(mono):
            d = sum(mono)
            per_degree[d] = per_degree.get(d, 0) + 1
    return [sum(per_degree.get(j, 0) for j in range(k + 1))
            for k in range(upto + 1)]


def specialize(res, point):
    """Family generators at a rational parameter point, in the plain ring."""
    F = res.family()
    xring = RingSpec(res.ring.x_vars, ())
    values = {name: point[name] for name in res.ring.t_vars}
    return [F[0, j].substitute(values).map_ring(xring) for j in range(F.cols)]


# -- the quartic cone, start to finish --------------------------------------

@pytest.fixture(scope="module")
def cone():
    return versal_deformation(cone_generators())


def test_cone_log_and_orders(cone):
    assert cone.log == [
        MSG_FIRST_ORDER, MSG_RELATIONS, MSG_LIFTING,
        MSG_ORDER % 2, MSG_ORDER % 3, MSG_POLYNOMIAL,
    ]
    assert cone.polynomial and cone.order == 3


def test_cone_dimensions(cone):
    assert cone.tangent_dimension == 4
    assert cone.obstruction_dimension == 3
    assert cone.parameters == ("t1", "t2", "t3", "t4")


def test_cone_base_equations(cone):
    G = cone.obstruction_equations()
    St = cone.ring
    rows = {format_expr(G[i, 0], compact=True) for i in range(G.rows)}
    assert rows == {"-t1*t2", "t1^2-2*t1*t4", "t1*t3"}
    for i in range(G.rows):
        g = G[i, 0]
        assert g.t_degree() == 2
        # base equations involve parameters only
        for mono in g.terms_dict:
            assert all(e == 0 for e in mono[:St.nx])


def test_cone_identity_exact(cone):
    assert identity_defect(cone).is_zero()


def test_cone_family_pieces(cone):
    F0 = as_generator_matrix(cone_generators()).promote(cone.ring)
    assert cone.F_pieces[0] == F0
    # every generator of the family is homogeneous once parameters carry
    # their compensating degrees
    F = cone.family()
    for j in range(F.cols):
        assert F[0, j].multi_degree() == (2,)


def test_cone_coefficient_matrix_starts_at_obstruction_basis(cone):
    C0 = cone.C_pieces[0]
    assert C0 == cone.obstruction.vectors.promote(cone.ring)


def test_cone_base_hilbert_function(cone):
    T = parameter_ring(cone.ring)
    G = cone.obstruction_equations()
    gens = [G[i, 0].map_ring(T) for i in range(G.rows)]
    gb = buchberger(gens)
    assert [hilbert_function(gb, (d,)) for d in range(3)] == [1, 4, 7]


def test_cone_flatness_at_base_points(cone):
    central = affine_staircase_profile(specialize(cone, {
        "t1": 0, "t2": 0, "t3": 0, "t4": 0}), 4)
    assert central == [1, 6, 15, 28, 45]
    # one point on each component of the base V(G)
    on_base = [
        {"t1": 0, "t2": 1, "t3": 1, "t4": 1},
        {"t1": 2, "t2": 0, "t3": 0, "t4": 1},
        {"t1": 0, "t2": Fraction(1, 2), "t3": -3, "t4": 0},
    ]
    for point in on_base:
        assert affine_staircase_profile(specialize(cone, point), 4) == central


def test_cone_off_base_point_is_not_flat(cone):
    off = {"t1": 1, "t2": 1, "t3": 0, "t4": 0}
    assert affine_staircase_profile(specialize(cone, off), 4) != \
        affine_staircase_profile(specialize(cone, {
            "t1": 0, "t2": 0, "t3": 0, "t4": 0}), 4)


def test_cone_relations_restrict_to_first_syzygies(cone):
    R = cone.relations()
    F = cone.family()
    prod = F * R
    assert prod.is_zero() or all(
        prod[i, j].is_zero() or prod[i, j].t_order() >= 2
        for i in range(prod.rows) for j in range(prod.cols))


def test_cone_determinism():
    a = versal_deformation(cone_generators())
    b = versal_deformation(cone_generators())
    assert a.family() == b.family()
    assert a.obstruction_equations() == b.obstruction_equations()
    assert a.log == b.log


def test_cone_truncation():
    res = versal_deformation(cone_generators(), max_order=2)
    assert not res.polynomial and res.order == 2
    assert MSG_POLYNOMIAL not in res.log
    defect = identity_defect(res)
    assert defect.t_truncate(2).is_zero()
    assert not defect.t_piece(3).is_zero()


def test_cone_logger_streams_the_log():
    seen = []
    res = versal_deformation(cone_generators(), logger=seen.append)
    assert seen == res.log


# -- hypersurface and complete intersection ---------------------------------

def test_cusp_family():
    ring = RingSpec(("x", "y"))
    res = versal_deformation([parse_expr("x^2 - y^3", ring)])
    F = res.family()
    assert res.polynomial and res.order == 1
    assert format_expr(F[0, 0]) == "-y^3 + x^2 + y*t2 + t1"
    assert res.relations().cols == 0
    assert res.obstruction_equations().rows == 0
    assert identity_defect(res).is_zero()


def test_complete_intersection_koszul_relations():
    ring = RingSpec(("x", "y"), (), ((1,), (1,)))
    gens = [parse_expr("x^2", ring), parse_expr("y^2", ring)]
    res = versal_deformation(gens)
    assert res.tangent_dimension == 4
    assert res.obstruction_dimension == 0
    assert res.polynomial and res.order == 1
    F, R = res.family(), res.relations()
    assert (F * R).is_zero()  # the lifted Koszul relation closes exactly
    assert res.obstruction_equations().rows == 0


def test_rigid_ideal():
    ring = RingSpec(("x", "y"))
    res = versal_deformation([parse_expr("x", ring)])
    assert res.parameters == ()
    assert res.polynomial and res.order == 0
    assert res.log == [MSG_FIRST_ORDER, MSG_POLYNOMIAL]


# -- a family that never closes --------------------------------------------

def test_nonclosing_identity_holds_through_cut_order():
    res = versal_deformation(nonclosing_generators(), degree=(0,), max_order=6)
    assert res.tangent_dimension == 8
    assert res.obstruction_dimension == 0
    assert not res.polynomial and res.order == 6
    defect = identity_defect(res)
    assert defect.t_truncate(6).is_zero()
    assert not defect.t_piece(7).is_zero()


def corrupt_first_cofactor(monkeypatch, change):
    """Lift the non-closing ideal with the first generator's cofactor in the
    tracked reduction replaced by change(cofactor); returns the order at
    which that cofactor was first nonzero and the LiftError message."""
    real = deformation._XBasis.reduce
    used = []

    def corrupted(self, col, track=False):
        nf, cofs = real(self, col, track=track)
        if track:
            used.append(0 in cofs)
            if 0 in cofs:
                cofs[0] = change(cofs[0])
        return nf, cofs

    monkeypatch.setattr(deformation._XBasis, "reduce", corrupted)
    with pytest.raises(LiftError) as err:
        versal_deformation(nonclosing_generators(), degree=(0,), max_order=6)
    # one tracked reduction per order, starting at order 2
    assert used.index(True) == len(used) - 1
    return len(used) + 1, str(err.value)


def test_wrong_cofactor_is_caught(monkeypatch):
    order, message = corrupt_first_cofactor(
        monkeypatch, lambda fd: {m: 2 * c for m, c in fd.items()})
    assert message == "lifting identity fails through order %d" % order


def test_piece_of_mixed_order_is_caught(monkeypatch):
    def add_higher_term(fd):
        m = min(fd)
        out = dict(fd)
        out[m[:3] + (m[3] + 1,) + m[4:]] = 1  # m * t1, one order higher
        return out

    order, message = corrupt_first_cofactor(monkeypatch, add_higher_term)
    assert message == \
        "F piece of order %d has terms of another order" % order


# -- multigraded Hilbert scheme germ ----------------------------------------

def test_diagonal_deformation_degree_zero():
    names = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")
    degs = tuple([(1, 0, 0)] * 3 + [(0, 1, 0)] * 3 + [(0, 0, 1)] * 3)
    ring = RingSpec(names, (), degs)
    gens = [parse_expr(s, ring) for s in [
        "y1*z2", "x1*z2", "y2*z1", "y1*z1", "x2*z1", "x1*z1",
        "x1*y2", "x2*y1", "x1*y1", "x2*y2*z2"]]
    res = versal_deformation(gens, degree=(0, 0, 0))
    assert res.tangent_dimension == 18
    assert res.obstruction_dimension == 8
    assert res.polynomial and res.order == 6
    assert res.log[3:] == [MSG_ORDER % k for k in range(2, 7)] + \
        [MSG_POLYNOMIAL]
    G = res.obstruction_equations()
    nonzero = [G[i, 0] for i in range(G.rows) if not G[i, 0].is_zero()]
    assert len(nonzero) == 8
    for g in nonzero:
        # obstruction equations are purely cubic in the parameters
        assert {sum(m) for m in
                (mono[res.ring.nx:] for mono in g.terms_dict)} == {3}
    assert identity_defect(res).is_zero()


# -- argument validation ----------------------------------------------------

def test_max_order_must_be_positive():
    with pytest.raises(VersalError):
        versal_deformation(cone_generators(), max_order=0)


def test_parameters_in_input_rejected():
    from versal import extend_with_parameters
    base = RingSpec(("x", "y"))
    St, _ = extend_with_parameters(base, 1)
    with pytest.raises(VersalError):
        versal_deformation([parse_expr("x^2 + t1", St)])
