"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Wall-clock budgets are asserted where the criterion
states one.
"""

import json
import random
import time

from versal import (
    Polynomial,
    RingSpec,
    as_generator_matrix,
    buchberger,
    cotangent1,
    cotangent2,
    hilbert_function,
    monomials_of_degree,
    normal_matrix,
    parameter_ring,
    parse_expr,
    rank,
    syzygy_matrix,
    versal_deformation,
)
from versal.cli import main
from versal.exactla import SparseMatrix


def minors_ideal():
    """2x2 minors of the 2x4 matrix [x0..x3 / x1..x4]: worked example 1."""
    ring = RingSpec(tuple("x%d" % i for i in range(5)), (), ((1,),) * 5)
    return as_generator_matrix([parse_expr(s, ring) for s in [
        "-x1^2 + x0*x2", "-x1*x2 + x0*x3", "-x2^2 + x1*x3",
        "-x1*x3 + x0*x4", "-x2*x3 + x1*x4", "-x3^2 + x2*x4"]])


def diagonal_ideal():
    """Multigraded ideal with the Hilbert function of the small diagonal:
    worked example 2."""
    names = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")
    degs = tuple([(1, 0, 0)] * 3 + [(0, 1, 0)] * 3 + [(0, 0, 1)] * 3)
    ring = RingSpec(names, (), degs)
    return as_generator_matrix([parse_expr(s, ring) for s in [
        "y1*z2", "x1*z2", "y2*z1", "y1*z1", "x2*z1", "x1*z1",
        "x1*y2", "x2*y1", "x1*y1", "x2*y2*z2"]])


def identity_defect(res):
    F, R = res.family(), res.relations()
    C, G = res.coefficient_matrix(), res.obstruction_equations()
    total = (F * R).transpose()
    if G.rows:
        total = total + C * G
    return total


def timed(budget, fn):
    start = time.monotonic()
    out = fn()
    elapsed = time.monotonic() - start
    print("elapsed %.2fs (budget %.0fs)" % (elapsed, budget))
    assert elapsed < budget
    return out


def test_criterion_1_example1_dimensions():
    def run():
        F0 = minors_ideal()
        return cotangent1(F0).dimension, cotangent2(F0).dimension
    t1_dim, t2_dim = timed(5, run)
    assert t1_dim == 4
    assert t2_dim == 3


def test_criterion_1_example1_work(monkeypatch):
    # load-independent companion of the wall-clock gate above: S-pairs
    # reduced by T1 + T2 of the cone, from empty caches
    from versal import cotangent, groebner
    for cached in (cotangent.ideal_basis, cotangent.first_syzygies,
                   cotangent._koszul_data):
        cached.cache_clear()
    calls = []
    spoly = groebner._Engine.spoly

    def counted(self, i, j):
        calls.append((i, j))
        return spoly(self, i, j)

    monkeypatch.setattr(groebner._Engine, "spoly", counted)
    F0 = minors_ideal()
    assert (cotangent1(F0).dimension, cotangent2(F0).dimension) == (4, 3)
    print("S-pairs reduced: %d (ceiling 1500)" % len(calls))
    assert len(calls) <= 1500


def test_criterion_2_example1_syzygy_count():
    S = timed(5, lambda: syzygy_matrix(minors_ideal()))
    assert S.cols == 8
    assert (minors_ideal() * S).is_zero()


def test_criterion_3_example1_lifting():
    res = timed(30, lambda: versal_deformation(minors_ideal()))
    assert res.polynomial
    assert res.log[-2:] == ["Order 3", "Solution is polynomial"]
    G = res.obstruction_equations()
    nonzero = [G[i, 0] for i in range(G.rows) if not G[i, 0].is_zero()]
    assert len(nonzero) == 3
    for g in nonzero:
        assert all(sum(m[res.ring.nx:]) == 2 for m in g.terms_dict)
    assert identity_defect(res).is_zero()


def test_criterion_4_example1_base_space():
    def run():
        res = versal_deformation(minors_ideal())
        T = parameter_ring(res.ring)
        G = res.obstruction_equations()
        ours = buchberger([G[i, 0].map_ring(T) for i in range(G.rows)
                           if not G[i, 0].is_zero()])
        reference = buchberger([parse_expr(s, T) for s in
                                ["t2*t3 - t3^2", "t1*t3", "t3*t4"]])
        return [
            (hilbert_function(ours, (d,)), hilbert_function(reference, (d,)))
            for d in range(3)
        ]
    pairs = timed(5, run)
    assert pairs == [(1, 1), (4, 4), (7, 7)]


def test_criterion_5_example2_lifting():
    def run():
        F0 = diagonal_ideal()
        t1 = normal_matrix(F0, (0, 0, 0))
        t2 = cotangent2(F0, (0, 0, 0))
        return versal_deformation(F0, t1=t1, t2=t2)
    res = timed(600, run)
    assert res.polynomial
    assert res.log[-2:] == ["Order 6", "Solution is polynomial"]
    G = res.obstruction_equations()
    nonzero = [G[i, 0] for i in range(G.rows) if not G[i, 0].is_zero()]
    assert len(nonzero) == 8
    nx = res.ring.nx
    for g in nonzero:
        for mono in g.terms_dict:
            assert all(e == 0 for e in mono[:nx])  # parameters only
            assert sum(mono[nx:]) == 3             # cubic
    assert identity_defect(res).is_zero()


def test_criterion_6a_membership_vs_linear_algebra():
    ring = RingSpec(("x", "y", "z"), (), ((1,),) * 3)
    rng = random.Random(2026)

    def random_homogeneous(d):
        p = Polynomial.zero(ring)
        for mono in monomials_of_degree(ring, (d,)):
            p = p + Polynomial.from_monomial(ring, mono, rng.randint(-2, 2))
        return p

    def oracle_member(gens, q):
        # q lies in the ideal iff it is a linear combination of the
        # monomial multiples m*g of matching degree
        d = sum(next(iter(q.terms_dict)))
        cols = []
        for g in gens:
            dg = sum(next(iter(g.terms_dict)))
            if dg > d:
                continue
            for m in monomials_of_degree(ring, (d - dg,)):
                cols.append(Polynomial.from_monomial(ring, m) * g)
        rows = {m: {} for m in monomials_of_degree(ring, (d,))}
        for j, c in enumerate(cols):
            for m, v in c.terms_dict.items():
                rows[m][j] = v
        with_q = {m: dict(row) for m, row in rows.items()}
        for m, v in q.terms_dict.items():
            with_q[m][len(cols)] = v
        M = SparseMatrix(len(cols) + 1, list(with_q.values()))
        without = SparseMatrix(len(cols), list(rows.values()))
        return rank(M) == rank(without)

    checked = 0
    while checked < 100:
        gens = [random_homogeneous(2), random_homogeneous(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        inside = (random_homogeneous(1) * gens[0] +
                  random_homogeneous(1) * gens[-1])
        outside = random_homogeneous(3)
        for q in (inside, outside):
            if q.is_zero():
                continue
            assert gb.contains(q) == oracle_member(gens, q)
        checked += 1


def test_criterion_6b_syzygies_annihilate_everywhere():
    inputs = [minors_ideal(), diagonal_ideal()]
    ring = RingSpec(("x", "y"), (), ((1,), (1,)))
    inputs.append(as_generator_matrix(
        [parse_expr("x^2", ring), parse_expr("y^2", ring)]))
    rng = random.Random(11)
    R3 = RingSpec(("x", "y", "z"), (), ((1,),) * 3)
    for _ in range(3):
        gens = []
        for _ in range(3):
            p = Polynomial.zero(R3)
            for mono in monomials_of_degree(R3, (2,)):
                p = p + Polynomial.from_monomial(R3, mono, rng.randint(-2, 2))
            if not p.is_zero():
                gens.append(p)
        if gens:
            inputs.append(as_generator_matrix(gens))
    for F in inputs:
        assert (F * syzygy_matrix(F)).is_zero()


def test_criterion_6c_congruence_after_every_step():
    # polynomial solutions: the exact identity holds outright; truncated
    # runs: it holds through the reached order
    for res in (versal_deformation(minors_ideal()),
                versal_deformation(minors_ideal(), max_order=2)):
        defect = identity_defect(res)
        if res.polynomial:
            assert defect.is_zero()
        else:
            assert defect.t_truncate(res.order).is_zero()
    ring = RingSpec(("x", "y"))
    res = versal_deformation([parse_expr("x^2 - y^3", ring)])
    assert identity_defect(res).is_zero()


def test_criterion_6d_hypersurfaces_unobstructed():
    cases = [
        (RingSpec(("x", "y")), "x^2 - y^3"),
        (RingSpec(("x", "y")), "x^2 + y^2"),
        (RingSpec(("x", "y"), (), ((1,), (1,))), "x^3 + y^3"),
        (RingSpec(("x", "y", "z")), "x^2 + y^2 + z^2"),
    ]
    for ring, text in cases:
        F0 = as_generator_matrix([parse_expr(text, ring)])
        assert cotangent2(F0).dimension == 0
        res = versal_deformation(F0)
        assert res.polynomial
        G = res.obstruction_equations()
        assert all(G[i, 0].is_zero() for i in range(G.rows))


def test_criterion_6e_smooth_inputs_are_rigid():
    cases = [
        (RingSpec(("x", "y")), ["x"]),
        (RingSpec(("x", "y")), ["x", "y"]),
        (RingSpec(("x", "y", "z")), ["x - y^2"]),
    ]
    for ring, texts in cases:
        res = versal_deformation([parse_expr(s, ring) for s in texts])
        assert res.parameters == ()
        assert res.polynomial and res.order == 0


def test_criterion_6f_determinism(tmp_path, capsys):
    path = tmp_path / "cone.vdef"
    path.write_text(
        "ring: QQ\nvars: x0 x1 x2 x3 x4\ndegrees: 1 1 1 1 1\n"
        "generators:\n"
        "    -x1^2 + x0*x2\n    -x1*x2 + x0*x3\n    -x2^2 + x1*x3\n"
        "    -x1*x3 + x0*x4\n    -x2*x3 + x1*x4\n    -x3^2 + x2*x4\n")
    outputs = []
    for _ in range(2):
        assert main(["deform", str(path), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])
