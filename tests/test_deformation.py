"""Tests for order-by-order construction of versal deformations.

The quartic-cone family and its base equations are classical results and
are asserted exactly; flatness of the family over its base is checked by
specializing the parameters to rational points and comparing staircase
sizes against the central fibre.
"""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from versal import (
    LiftError,
    PolyMatrix,
    RingSpec,
    TangentBasis,
    VersalError,
    as_generator_matrix,
    buchberger,
    extend_with_parameters,
    first_syzygies,
    format_expr,
    hilbert_function,
    load_input,
    parameter_ring,
    parse_expr,
    versal_deformation,
)
from versal import deformation, groebner
from versal.deformation import (
    MSG_FIRST_ORDER,
    MSG_LIFTING,
    MSG_ORDER,
    MSG_POLYNOMIAL,
    MSG_RELATIONS,
)
from versal.polyring import mono_div, mono_divides, mono_mul

DIAGONAL_FILE = (Path(__file__).resolve().parents[1]
                 / "demos" / "data" / "diagonal_p2cubed.vdef")


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


def test_obstruction_basis_off_normal_form(cone):
    # a relation added to an obstruction vector presents the same T2, but
    # the correction V*g - b_sub of a step then has cofactors of its own,
    # which the lift must add to those of the error term
    F0m = as_generator_matrix(cone_generators())
    R0 = first_syzygies(F0m)
    V = cone.obstruction.vectors
    rows = [list(r) for r in V.entries]
    for i in range(V.rows):
        rows[i][0] = rows[i][0] + R0[0, i]
    t2 = TangentBasis(PolyMatrix(V.ring, rows, V.row_degrees, V.col_degrees),
                      cone.obstruction.degrees)
    res = versal_deformation(cone_generators(), t2=t2)
    assert res.polynomial and res.order == 3
    assert res.obstruction_equations() == cone.obstruction_equations()
    assert identity_defect(res).is_zero()


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

    def corrupted(self, col):
        nf, cofs = real(self, col)
        used.append(0 in cofs)
        if 0 in cofs:
            cofs[0] = change(cofs[0])
        return nf, cofs

    monkeypatch.setattr(deformation._XBasis, "reduce", corrupted)
    with pytest.raises(LiftError) as err:
        versal_deformation(nonclosing_generators(), degree=(0,), max_order=6)
    # one tracked reduction per order, starting at order 2: T2 = 0, so the
    # correction V*g - b_sub is always empty and only the error is reduced
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


def test_each_order_part_is_computed_once(monkeypatch):
    # a load-independent work gate: every part of transpose(F*R) + C*G goes
    # through _error_term once, from the first-order check (orders 0-2) to
    # the last step (order 7, the first part beyond the cut)
    real = deformation._error_term
    calls = Counter()

    def counted(state, target):
        calls[target] += 1
        return real(state, target)

    monkeypatch.setattr(deformation, "_error_term", counted)
    res = versal_deformation(nonclosing_generators(), degree=(0,), max_order=6)
    assert res.order == 6 and not res.polynomial
    assert calls == Counter(range(8))


# -- coefficients: int when integral, else Fraction, never float -------------

def piece_coefficients(res):
    for pieces in (res.F_pieces, res.R_pieces,
                   res.G_pieces.values(), res.C_pieces.values()):
        for mat in pieces:
            for row in mat.entries:
                for p in row:
                    yield from p.terms_dict.values()


def test_lift_of_fractional_germ_keeps_exact_coefficients():
    # the non-closing ideal with generators scaled by 2 and 1/2: its error
    # columns have denominators, and its tracked reductions scale by
    # leading coefficients other than 1, so every division in the lift
    # (_XBasis.reduce, the cofactors of the first-order relations) has a
    # divisor other than 1
    ring = nonclosing_generators()[0].ring
    gens = [parse_expr(s, ring) for s in ["2*x^2", "1/2*y*z", "x*z^2"]]
    res = versal_deformation(gens, degree=(0,), max_order=4)
    assert res.order == 4 and not res.polynomial
    coeffs = list(piece_coefficients(res))
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in coeffs)
    assert any(type(c) is Fraction for c in coeffs)
    defect = identity_defect(res)
    assert defect.t_truncate(4).is_zero()


def test_integral_lifts_store_int_coefficients(cone):
    res = versal_deformation(nonclosing_generators(), degree=(0,), max_order=6)
    for result in (cone, res):
        assert all(type(c) is int for c in piece_coefficients(result))


@pytest.mark.parametrize("workload", ["nonclosing", "diagonal"])
def test_nonclosing_lift_builds_few_fractions(monkeypatch, workload):
    # a load-independent work gate: with integral input the tangent
    # spaces and the lift run on int coefficients, and a Fraction is made
    # only for a division that is not exact (over 10^5 when every
    # coefficient was a Fraction)
    real = Fraction.__new__
    made = [0]

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return real(cls, *args, **kwargs)

    if workload == "nonclosing":
        gens, degree, order = nonclosing_generators(), (0,), 10
    else:
        gens, degree, order = load_input(DIAGONAL_FILE).generators, (0, 0, 0), 6
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    res = versal_deformation(gens, degree=degree, max_order=10)
    monkeypatch.undo()
    assert res.order == order and res.polynomial == (workload == "diagonal")
    assert made[0] <= 50


# -- the heap-ordered reduction against a plain one -------------------------

def plain_reduce(gb, col, key=None):
    """Reference for the lift's reduction: the monic elements of the
    tracked basis gb, the first one in basis order whose lead divides the
    term, with the next term picked by max() over the whole work dict under
    `key` (term-over-position by default)."""
    if key is None:
        key = lambda t: (gb.ring.monomial_key(t[1]), -t[0])
    leads = gb.leading_terms()
    vecs = [{(p, m): c for p, comp in enumerate(el.components)
             for m, c in comp.terms_dict.items()} for el in gb.elements]
    exprs = [{i: poly.terms_dict for i, poly in expr.items()}
             for expr in gb.expressions()]
    work = {t: c for t, c in col.items() if c}
    nf = {}
    el_cofs = {}
    while work:
        term = max(work, key=key)
        coeff = work.pop(term)
        pos, mono = term
        hit = next((idx for idx, lt in enumerate(leads)
                    if lt[0] == pos and mono_divides(lt[1], mono)), None)
        if hit is None:
            nf[term] = coeff
            continue
        delta = mono_div(mono, leads[hit][1])
        for (p2, m2), c2 in vecs[hit].items():
            t2 = (p2, mono_mul(m2, delta))
            if t2 != term:
                work[t2] = work.get(t2, 0) - coeff * c2
                if not work[t2]:
                    del work[t2]
        d = el_cofs.setdefault(hit, {})
        d[delta] = d.get(delta, 0) + coeff
    cofs = {}
    for idx, mult in el_cofs.items():
        for i, expr in exprs[idx].items():
            acc = cofs.setdefault(i, {})
            for m1, c1 in mult.items():
                for m2, c2 in expr.items():
                    mm = mono_mul(m1, m2)
                    acc[mm] = acc.get(mm, 0) + c1 * c2
    return nf, {i: clean(fd) for i, fd in cofs.items() if clean(fd)}


def clean(fd):
    return {k: c for k, c in fd.items() if c}


def added(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return clean(out)


def xbasis_of(gens):
    """The reduction basis a lift of `gens` uses, over two parameters, as
    (_XBasis, gb0, number of relations)."""
    F0m = as_generator_matrix(gens)
    R0 = first_syzygies(F0m)
    St, _ = extend_with_parameters(RingSpec(F0m.ring.x_vars, ()), 2)
    gb0, _, _ = deformation._reduction_setup(F0m, R0, St)
    return deformation._XBasis(gb0), gb0, R0.cols


def random_column(rng, gb, l, size):
    """Terms (pos, x-monomial * t-monomial of order 1 to 3); half of them
    are multiples of a leading term, so that reductions happen."""
    nx, nt = gb.ring.nx, gb.ring.nt
    leads = gb.leading_terms()
    col = {}
    for _ in range(size):
        if rng.random() < 0.5:
            pos, lead = rng.choice(leads)
            x = mono_mul(lead[:nx], tuple(rng.randint(0, 1) for _ in range(nx)))
        else:
            pos = rng.randrange(l)
            x = tuple(rng.randint(0, 2) for _ in range(nx))
        t = [0] * nt
        for _ in range(rng.randint(1, 3)):
            t[rng.randrange(nt)] += 1
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        col[(pos, x + tuple(t))] = c
    return col


@pytest.fixture(scope="module", params=["diagonal", "nonclosing"])
def xbasis(request):
    if request.param == "diagonal":
        return xbasis_of(load_input(DIAGONAL_FILE).generators)
    return xbasis_of(nonclosing_generators())


def test_heap_reduction_matches_plain_max_loop(xbasis):
    xb, gb0, l = xbasis
    rng = random.Random(6061)
    for _ in range(12):
        col = random_column(rng, gb0, l, rng.randint(1, 12))
        assert xb.reduce(col) == plain_reduce(gb0, col)


def test_reduction_is_linear(xbasis):
    # the lift reduces the error and its correction apart and adds the
    # results; that equals reducing their sum only if reduce is linear
    xb, gb0, l = xbasis
    rng = random.Random(6062)
    for _ in range(12):
        a = random_column(rng, gb0, l, rng.randint(1, 10))
        b = random_column(rng, gb0, l, rng.randint(1, 10))
        for t in rng.sample(sorted(a), len(a) // 2):
            b[t] = -a[t]  # cancel some terms of a exactly
        nf_a, cofs_a = xb.reduce(a)
        nf_b, cofs_b = xb.reduce(b)
        nf, cofs = xb.reduce(added(a, b))
        assert nf == added(nf_a, nf_b)
        summed = {i: added(cofs_a.get(i, {}), cofs_b.get(i, {}))
                  for i in set(cofs_a) | set(cofs_b)}
        assert cofs == {i: fd for i, fd in summed.items() if fd}


def test_scaled_reduction_matches_plain_max_loop():
    # every workload's reduction basis has leading coefficients 1 as integer
    # vectors; this one has 2 and 3, so the shared loop scales its queued
    # coefficients, and its columns take over 64 steps, which reaches the
    # periodic content division
    ring, _ = extend_with_parameters(RingSpec(("x", "y", "z"), ()), 1)
    gens = [[parse_expr(s, ring) for s in col]
            for col in (["2*x^2 + x*y + z", "y"], ["0", "3*y^2 + z^2 + x*z"])]
    mk = ring.monomial_key
    orders = {None: lambda t: (mk(t[1]), -t[0]),
              1: lambda t: (t[0] < 1, mk(t[1]), -t[0])}
    rng = random.Random(6063)

    def column(coeffs):
        return {(rng.randrange(2), tuple(rng.randint(0, 5) for _ in range(4))):
                rng.choice(coeffs) for _ in range(20)}

    for eliminate, key in orders.items():
        engine = groebner._Engine(ring, 2, track=True, eliminate=eliminate)
        for col in gens:
            engine.add_column(col)
        engine.complete()
        groebner._interreduce(engine)
        assert sorted(el.lc for el in engine.basis) == [2, 3]
        gb = groebner.GroebnerBasis(ring, 2, engine, len(gens), tracked=True)
        for _ in range(3):
            vec = column([-6, -3, 2, 4, 6, 9])
            h, cofs, scale = engine.nf_with_input_cofactors(vec)
            assert ({t: Fraction(c, scale) for t, c in h.items()},
                    {i: {m: Fraction(c, scale) for m, c in fd.items()}
                     for i, fd in cofs.items()}) == plain_reduce(gb, vec, key)
        if eliminate is None:
            xb = deformation._XBasis(gb)
            for _ in range(3):
                col = column([Fraction(a, b) for a in (-3, -1, 1, 2, 5)
                              for b in (1, 2, 3)])
                assert xb.reduce(col) == plain_reduce(gb, col)


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


@pytest.mark.parametrize("order", [4, 5, 6])
def test_wrong_coefficient_addition_is_caught(monkeypatch, order):
    # on the diagonal germ phase A adds to C at orders 4-6, the only lift
    # here whose C*G products are nonzero; a doubled addition must fail the
    # identity at the order of the step that made it
    real = deformation._phase_a
    doubled = []

    def corrupted(state, nf, target):
        g_new, c_new, b_sub = real(state, nf, target)
        if target == order:
            key = min(k for k, fd in c_new.items() if fd)
            c_new[key] = {m: 2 * c for m, c in c_new[key].items()}
            doubled.append(key)
        return g_new, c_new, b_sub

    monkeypatch.setattr(deformation, "_phase_a", corrupted)
    with pytest.raises(LiftError) as err:
        versal_deformation(load_input(DIAGONAL_FILE).generators,
                           degree=(0, 0, 0))
    assert len(doubled) == 1
    assert str(err.value) == "lifting identity fails through order %d" % order
