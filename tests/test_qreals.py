"""Quantum reals as spectral cuts, Born probabilities, the real predicate."""

import gc
import random
from fractions import Fraction

import pytest

from lvset import exactmat as xm
from lvset import projections as pj
from lvset.exactnum import GQ, gq
from lvset.formula import Environment, eval_formula, parse
from lvset.generators import (random_commuting_pair, random_projection,
                              random_spectral_data, random_state_vector,
                              random_vector)
from lvset.lattice import BooleanLattice, ProjectionLattice
from lvset.projections import (LatticeError, Projection, SpectralData,
                               identity_projection, proj_from_span,
                               zero_projection)
from lvset.qreals import (ProbabilityResult, QReal, StateVector,
                          born_probability, classical_equal_value_probability,
                          format_probability, observational_atom,
                          prob_equal, qreal_as_qset, qreal_from_spectral,
                          real_predicate_truth, spectral_commutes, truth_eq,
                          truth_leq)


def diag_observable(values):
    """Spectral data of diag(values) in the standard basis."""
    dim = len(values)
    groups = {}
    for i, v in enumerate(values):
        groups.setdefault(Fraction(v), []).append(i)
    eigen = []
    for v, idxs in groups.items():
        vecs = []
        for i in idxs:
            vec = [gq(0)] * dim
            vec[i] = gq(1)
            vecs.append(tuple(vec))
        eigen.append((v, proj_from_span(vecs, dim)))
    return SpectralData(dim=dim, eigen=tuple(sorted(eigen, key=lambda t: t[0])))


def test_qreal_validation():
    lat = ProjectionLattice(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    top = lat.top()
    QReal(lat, (Fraction(0), Fraction(1)), (p, top))
    with pytest.raises(LatticeError):
        QReal(lat, (Fraction(1), Fraction(0)), (p, top))  # not increasing
    with pytest.raises(LatticeError):
        QReal(lat, (Fraction(0), Fraction(1)), (top, p))  # not monotone
    with pytest.raises(LatticeError):
        QReal(lat, (Fraction(0),), (p,))  # last cut must be top
    with pytest.raises(LatticeError):
        QReal(lat, (Fraction(0), Fraction(1)), (top,))  # length mismatch
    with pytest.raises(LatticeError):
        QReal(lat, (), ())


def test_qreal_from_spectral_cuts():
    sd = diag_observable([1, 2])
    q = qreal_from_spectral(sd, [1, 2])
    assert q.cut(1) == sd.projection_for(Fraction(1))
    assert q.cut(2) == identity_projection(2)
    with pytest.raises(LatticeError):
        qreal_from_spectral(sd, [2])  # grid must contain every eigenvalue
    with pytest.raises(LatticeError):
        q.cut(7)


def test_qreal_cuts_reuse_bounds_and_eigenprojections():
    # a cut below the spectrum is bottom, one holding every eigenvalue top,
    # one holding a single eigenvalue that very eigenprojection; only a
    # partial sum of two or more is a new projection, one per sum
    sd = diag_observable([1, 2, 3, 4])
    q = qreal_from_spectral(sd, [0, 1, Fraction(3, 2), 2, 3, 4, 5])
    lat = q.lattice
    p1, p2, p3, _ = (p for _, p in sd.eigen)
    assert q.cut(0) is lat.bottom()
    assert q.cut(1) is p1 and q.cut(Fraction(3, 2)) is p1
    assert q.cut(2) == Projection(xm.mat_add(p1.matrix, p2.matrix))
    assert q.cut(3) == Projection(xm.mat_add(q.cut(2).matrix, p3.matrix))
    assert q.cut(4) is lat.top() and q.cut(5) is lat.top()
    assert len({id(c) for c in q.cuts}) == 5
    scalar = qreal_from_spectral(diag_observable([7, 7]), [6, 7])
    assert scalar.cuts[0] is scalar.lattice.bottom() and scalar.cuts[1] is scalar.lattice.top()
    pair = diag_observable([1, 2])
    q = qreal_from_spectral(pair, [1, 2])
    assert q.cuts[0] is pair.eigen[0][1] and q.cuts[1] is q.lattice.top()


def test_prob_equal_builds_each_projection_once(monkeypatch):
    # Projections are interned, so only a matrix not seen before is
    # validated. The two reals share the partial sum diag(1,1,0), the one
    # new matrix. [[a = b]] takes no complements or meets: it is the kernel
    # of the one cut difference left, diag(1,0,0) minus the projection onto
    # (1,1,0), and that kernel is e3's projection, already built. The
    # inputs, zero and identity are built and held before counting, so the
    # count does not depend on other tests.
    def e(*xs):
        return tuple(gq(x) for x in xs)

    a = diag_observable([1, 2, 3])
    b = SpectralData(dim=3, eigen=((Fraction(1), proj_from_span([e(1, 1, 0)], 3)),
                                   (Fraction(2), proj_from_span([e(1, -1, 0)], 3)),
                                   (Fraction(3), proj_from_span([e(0, 0, 1)], 3))))
    state = StateVector(e(1, 2, 1))
    zero_projection(3), identity_projection(3)
    gc.collect()  # no dead projection of an earlier test stays interned
    calls = []
    real = pj.xm.is_hermitian

    def counted(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(pj.xm, "is_hermitian", counted)
    result = prob_equal(a, b, state)
    monkeypatch.undo()
    assert len(calls) == 1
    assert result.element == proj_from_span([e(0, 0, 1)], 3)
    assert result.value == Fraction(1, 6) and result.model_dependent


def test_prob_equal_element_is_truth_eq_on_any_grids_holding_the_spectra():
    # each real read on its own spectrum gives the very object that truth_eq
    # gives on larger grids: a further point only repeats a cut pair or adds
    # a pair of equal cuts, so no grid option could change the element
    rng = random.Random(98)
    values = [Fraction(v) for v in range(-2, 3)]  # few, so the spectra overlap

    def points(k):
        return [Fraction(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(k)]

    noncommuting = commuting = between = 0
    for dim in (2, 3, 4):
        for k in range(24):
            if k % 3 == 0:  # a's eigenprojections under other values: they commute
                a = _observable(rng, dim, rng.sample(values, rng.randint(1, dim)))
                b = SpectralData(dim=dim, eigen=tuple(
                    (v, p) for (_, p), v in zip(a.eigen, rng.sample(values, len(a.eigen)))))
            elif k % 3 == 1 or dim == 2:  # two or more eigenvalues each: rarely commuting
                a, b = (_observable(rng, dim, rng.sample(values, rng.randint(2, dim)))
                        for _ in range(2))
            else:
                a, b = _sharing_pair(rng, dim)
            element = prob_equal(a, b, StateVector(random_state_vector(rng, dim))).element
            for _ in range(3):
                qa = qreal_from_spectral(a, a.eigenvalues() + points(rng.randint(0, 3)))
                qb = qreal_from_spectral(b, b.eigenvalues() + points(rng.randint(0, 3)))
                qa, qb = qa.refined(points(rng.randint(0, 3))), qb.refined(points(rng.randint(0, 3)))
                assert truth_eq(qa, qb) is element
                assert truth_eq(qb, qa) is element
            commuting += spectral_commutes(a, b)
            noncommuting += not spectral_commutes(a, b)
            between += element is not zero_projection(dim) and element is not identity_projection(dim)
    assert commuting >= 20 and noncommuting >= 30 and between >= 20


def test_spectral_cuts_commute_pairwise():
    # QReal does not test commutation itself: its monotone cuts commute
    rng = random.Random(11)
    for dim in (2, 3, 4):
        for _ in range(4):
            sd = random_spectral_data(rng, dim, n_eigenvalues=dim)
            cuts = qreal_from_spectral(sd, sd.eigenvalues()).cuts
            for i, p in enumerate(cuts):
                for q in cuts[i + 1:]:
                    assert p.commutes_with(q) and q.commutes_with(p)


def test_refinement_is_exact():
    sd = diag_observable([1, 3])
    q = qreal_from_spectral(sd, [1, 3])
    finer = q.refined([0, 2, Fraction(5, 2), 4])
    # new points take the value of the latest grid point below them
    assert finer.cut(0) == zero_projection(2)
    assert finer.cut(2) == q.cut(1)
    assert finer.cut(Fraction(5, 2)) == q.cut(1)
    assert finer.cut(4) == identity_projection(2)
    # refinement commutes with comparison: truth values are unchanged
    other = qreal_from_spectral(diag_observable([1, 2]), [1, 2, 3])
    assert truth_eq(q, other) == truth_eq(finer, other)
    assert truth_leq(q, other) == truth_leq(finer, other)
    assert truth_leq(other, q) == truth_leq(other, finer)


def test_truth_eq_worked_examples():
    # identical diagonal observables: equal with certainty
    a = diag_observable([1, 2])
    b = diag_observable([1, 2])
    assert truth_eq(qreal_from_spectral(a, [1, 2]),
                    qreal_from_spectral(b, [1, 2])) == identity_projection(2)
    # diag(1,2) vs diag(1,3): they agree exactly on the first basis vector
    c = diag_observable([1, 3])
    got = truth_eq(qreal_from_spectral(a, [1, 2, 3]),
                   qreal_from_spectral(c, [1, 2, 3]))
    assert got == proj_from_span([(gq(1), gq(0))], 2)
    # a rotated copy shares no eigenvector: equality has truth value 0
    rot = SpectralData(dim=2, eigen=(
        (Fraction(1), proj_from_span([(gq(1), gq(1))], 2)),
        (Fraction(2), proj_from_span([(gq(1), gq(-1))], 2)),
    ))
    got = truth_eq(qreal_from_spectral(a, [1, 2]),
                   qreal_from_spectral(rot, [1, 2]))
    assert got == zero_projection(2)


def test_truth_leq_scalar_cases():
    # constant observables compare like their scalars
    lat = ProjectionLattice(2)

    def const(v):
        return qreal_from_spectral(diag_observable([v, v]), [v])

    one, two = const(1), const(2)
    assert truth_leq(one, two) == lat.top()
    assert truth_leq(two, one) == lat.bottom()
    assert truth_leq(one, one) == lat.top()
    assert truth_eq(one, two) == lat.bottom()


def test_truth_leq_reflexive_antisymmetric_on_random():
    rng = random.Random(21)
    for dim in (2, 3):
        for _ in range(10):
            sd = random_spectral_data(rng, dim)
            grid = sd.eigenvalues()
            q = qreal_from_spectral(sd, grid)
            lat = q.lattice
            assert truth_leq(q, q) == lat.top()
            assert truth_eq(q, q) == lat.top()


def test_born_probability_exact_and_decimal():
    p = proj_from_span([(gq(1), gq(0))], 2)
    # exact unnormalized ray: (1, 1) gives exactly 1/2
    state = StateVector([gq(1), gq(1)])
    assert born_probability(p, state) == Fraction(1, 2)
    # decimal state must be normalized
    dstate = StateVector([2 ** -0.5, 2 ** -0.5], exact=False)
    assert abs(born_probability(p, dstate) - 0.5) < 1e-12
    with pytest.raises(LatticeError):
        StateVector([0.5, 0.5], exact=False)
    with pytest.raises(LatticeError):
        StateVector([gq(0), gq(0)])
    with pytest.raises(LatticeError):
        born_probability(p, StateVector([gq(1), gq(0), gq(0)]))


def test_spectral_probabilities_sum_to_one():
    rng = random.Random(22)
    for dim in (2, 3, 4):
        for _ in range(15):
            sd = random_spectral_data(rng, dim)
            state = StateVector(random_state_vector(rng, dim))
            total = sum(born_probability(p, state) for _, p in sd.eigen)
            assert total == Fraction(1)


def test_prob_equal_matches_classical_oracle_on_commuting():
    rng = random.Random(23)
    checked = 0
    for dim in (2, 3, 4):
        while checked < (dim - 1) * 20:
            a = random_spectral_data(rng, dim)
            basis_proj = [p for _, p in a.eigen]
            # a second observable diagonal in the same eigenbasis
            values = set()
            while len(values) < len(basis_proj):
                values.add(Fraction(rng.randint(-6, 6)))
            b = SpectralData(dim=dim, eigen=tuple(
                (v, p) for v, p in zip(sorted(values), basis_proj)))
            state = StateVector(random_state_vector(rng, dim))
            result = prob_equal(a, b, state)
            assert not result.model_dependent
            assert result.exact
            assert result.value == classical_equal_value_probability(a, b, state)
            checked += 1
    assert checked >= 60


def test_prob_equal_noncommuting_is_model_dependent():
    a = diag_observable([1, 2])
    rot = SpectralData(dim=2, eigen=(
        (Fraction(1), proj_from_span([(gq(1), gq(1))], 2)),
        (Fraction(2), proj_from_span([(gq(1), gq(-1))], 2)),
    ))
    assert not spectral_commutes(a, rot)
    result = prob_equal(a, rot, StateVector([gq(1), gq(0)]))
    assert result.model_dependent
    assert result.value == Fraction(0)  # [[a = rot]] = 0 here
    assert "model-dependent" in result.render()
    with pytest.raises(LatticeError):
        classical_equal_value_probability(a, rot, StateVector([gq(1), gq(0)]))


def test_prob_equal_worked_example_is_half():
    # [[a = b]] projects onto the first basis vector; the balanced ray
    # (1, 1) then gives probability exactly 1/2
    a = diag_observable([1, 2])
    b = diag_observable([1, 3])
    state = StateVector([gq(1), gq(1)])
    result = prob_equal(a, b, state)
    assert result.value == Fraction(1, 2)
    assert result.exact and not result.model_dependent
    assert result.render() == "1/2"
    assert result.element == proj_from_span([(gq(1), gq(0))], 2)


def test_observational_atom():
    sd = diag_observable([1, 2, 2])
    atom = observational_atom(sd, 2)
    assert atom.rank() == 2
    assert observational_atom(sd, 5) == zero_projection(3)
    state = StateVector([gq(0), gq(1), gq(0)])
    assert born_probability(atom, state) == Fraction(1)


def test_state_vector_json_round_trip():
    s = StateVector([gq(1), GQ(Fraction(1, 2), Fraction(-1, 3))])
    again = StateVector.from_json(s.to_json())
    assert again.exact and again.entries == s.entries
    d = StateVector([0.6, 0.8j], exact=False)
    again = StateVector.from_json(d.to_json())
    assert not again.exact
    assert all(abs(x - y) < 1e-15 for x, y in zip(again.entries, d.entries))
    with pytest.raises(LatticeError):
        StateVector.from_json({"kind": "mystery", "entries": []})


def test_format_probability():
    assert format_probability(Fraction(1, 2)) == "1/2"
    assert format_probability(Fraction(1)) == "1"
    assert format_probability(0.5) == "0.5"
    assert format_probability(1 / 3) == "0.333333333333"


def test_real_predicate_holds_on_random_observables():
    rng = random.Random(24)
    checked = 0
    for dim in (2, 3, 4):
        for _ in range(12):
            sd = random_spectral_data(rng, dim)
            q = qreal_from_spectral(sd, sd.eigenvalues())
            lat = q.lattice
            assert real_predicate_truth(q) == lat.top()
            # grid refinement never changes the verdict
            refined = q.refined([Fraction(99), Fraction(-99)])
            assert real_predicate_truth(refined) == lat.top()
            checked += 1
    assert checked >= 36


def test_qreal_as_qset_membership_values():
    sd = diag_observable([1, 2])
    q = qreal_from_spectral(sd, [1, 2])
    u, numerals = qreal_as_qset(q)
    from lvset.universe import truth_membership
    # [[numeral_k in u]] is exactly the k-th cut
    for k, numeral in enumerate(numerals):
        assert truth_membership(numeral, u) == q.cuts[k]


# ------------------------------------------- oracles: the earlier routes

def _refined_copy(q, points):
    """The step-rule refinement as a separate validated QReal."""
    cuts = []
    for p in points:
        value = q.lattice.bottom()
        for g, c in zip(q.grid, q.cuts):
            if g <= p:
                value = c
            else:
                break
        cuts.append(value)
    return QReal(q.lattice, tuple(points), tuple(cuts))


def _refined_pair(a, b):
    grid = sorted(set(a.grid) | set(b.grid))
    return _refined_copy(a, grid), _refined_copy(b, grid)


def _truth_eq_oracle(a, b):
    a, b = _refined_pair(a, b)
    lat = a.lattice
    return lat.big_meet(lat.join(lat.meet(x, y), lat.meet(lat.ortho(x), lat.ortho(y)))
                        for x, y in zip(a.cuts, b.cuts))


def _truth_leq_oracle(a, b):
    a, b = _refined_pair(a, b)
    lat = a.lattice
    return lat.big_meet(lat.sasaki_arrow(y, x) for x, y in zip(a.cuts, b.cuts))


def _real_predicate_oracle(q):
    """R(u) rendered as formula text and evaluated by the formula module."""
    u, nums = qreal_as_qset(q)
    names = [f"g{k}" for k in range(len(nums))]
    conjuncts = [f"(g{i} in u -> g{j} in u)"
                 for i in range(len(nums)) for j in range(i + 1, len(nums))]
    conjuncts.append("(" + " | ".join(f"{name} in u" for name in names) + ")")
    env = Environment(q.lattice, {"u": u, **dict(zip(names, nums))})
    return eval_formula(parse(" & ".join(conjuncts)), env)


def _observable(rng, dim, values):
    """A random observable with the given eigenvalues, one per eigenspace."""
    shape = random_spectral_data(rng, dim, n_eigenvalues=len(values))
    return SpectralData(dim=dim, eigen=tuple(
        (Fraction(v), p) for v, (_, p) in zip(sorted(values), shape.eigen)))


def test_truth_eq_and_leq_match_refined_copies_on_disjoint_grids():
    rng = random.Random(91)
    for _ in range(24):
        dim = rng.randint(2, 3)
        k = rng.randint(1, dim)
        evens = rng.sample(range(-8, 9, 2), k + 2)
        odds = rng.sample(range(-9, 9, 2), k + 2)
        a = qreal_from_spectral(_observable(rng, dim, evens[:k]), evens)
        b = qreal_from_spectral(_observable(rng, dim, odds[:k]), odds)
        assert not set(a.grid) & set(b.grid)
        assert truth_eq(a, b) == _truth_eq_oracle(a, b)
        assert truth_eq(b, a) == _truth_eq_oracle(b, a)
        assert truth_leq(a, b) == _truth_leq_oracle(a, b)
        assert truth_leq(b, a) == _truth_leq_oracle(b, a)


def _sharing_pair(rng, dim):
    """Two observables with a common eigenvector v of one eigenvalue and
    otherwise independent random eigenbases of v's complement. Where both
    split that complement into two eigenspaces or more they usually do not
    commute, yet they always agree at least on v."""
    v = random_vector(rng, dim)
    pv = proj_from_span([v], dim)
    shared = Fraction(rng.randint(-6, 6))
    rest = pv.complement().matrix

    def side():
        basis = []
        while len(basis) < dim - 1:
            basis = xm.orthogonalize([xm.mat_vec(rest, random_vector(rng, dim))
                                      for _ in range(dim - 1)])
        k = rng.randint(1, dim - 1)
        cuts = [0, *sorted(rng.sample(range(1, dim - 1), k - 1)), dim - 1]
        values = set()
        while len(values) < k:
            values.add(Fraction(rng.randint(-6, 6)))
            values.discard(shared)
        return SpectralData(dim=dim, eigen=((shared, pv), *(
            (value, proj_from_span(basis[i:j], dim))
            for value, i, j in zip(sorted(values), cuts, cuts[1:]))))

    return side(), side()


def _commutes_all_pairs(a, b):
    return all(p.commutes_with(q) for _, p in a.eigen for _, q in b.eigen)


def _boolean_qreal(rng, lat):
    """A Boolean quantum real: each atom takes a value in 0..2, and the cut
    at r holds the atoms of value ≤ r, on those values and two more points."""
    of = [rng.randint(0, 2) for _ in range(lat.atoms)]
    grid = sorted(set(of) | set(rng.sample(range(-2, 5), 2)))
    cuts = [sum(1 << i for i, v in enumerate(of) if v <= r) for r in grid]
    return QReal(lat, tuple(grid), tuple(cuts))


def test_truth_eq_is_the_biconditional_meet():
    # the kernel of the stacked cut differences is the very object that the
    # lattice route (x∧y) ∨ (x⊥∧y⊥), met over the merged grid, builds
    rng = random.Random(94)
    pairs = [(random_spectral_data(rng, dim), random_spectral_data(rng, dim))
             for dim in (2, 3, 4) for _ in range(40)]
    pairs += [_sharing_pair(rng, dim) for dim in (3, 4) for _ in range(40)]
    noncommuting = between = 0
    for a, b in pairs:
        qa = qreal_from_spectral(a, a.eigenvalues())
        qb = qreal_from_spectral(b, b.eigenvalues()).refined([Fraction(rng.randint(-7, 7))])
        got = truth_eq(qa, qb)
        assert got is _truth_eq_oracle(qa, qb)
        assert truth_eq(qb, qa) is got
        noncommuting += not _commutes_all_pairs(a, b)
        between += got is not qa.lattice.bottom() and got is not qa.lattice.top()
    assert noncommuting >= 60 and between >= 60
    # Boolean elements are ints, so there they are compared by value
    lat = BooleanLattice(3)
    between = 0
    for _ in range(60):
        qa, qb = _boolean_qreal(rng, lat), _boolean_qreal(rng, lat)
        got = truth_eq(qa, qb)
        assert got == _truth_eq_oracle(qa, qb) == truth_eq(qb, qa)
        between += got not in (0, lat.top())
    assert between >= 25


def test_prob_equal_is_one_exactly_on_perfectly_correlated_states():
    # without the lattice: Pr{a = b ‖ ψ} = 1 exactly when P_a(λ)ψ = P_b(λ)ψ
    # for every λ in either spectrum, and exactly when P_a(x)ψ ⟂ P_b(y)ψ
    # for every x ≠ y (Ozawa's perfect correlation), on random states and
    # on states drawn from the range of [[a = b]]
    rng = random.Random(95)
    correlated_count = uncorrelated_count = 0
    for dim in (2, 3, 4):
        for k in range(30):
            a = random_spectral_data(rng, dim)
            if k % 3 == 0:
                b = random_spectral_data(rng, dim)
            elif k % 3 == 1:
                b = SpectralData(dim=dim, eigen=tuple(
                    (v, p) for (_, p), v in zip(a.eigen, a.eigenvalues()[::-1])))
            else:
                a, b = _sharing_pair(rng, dim) if dim > 2 else (a, a)
            psi = random_state_vector(rng, dim)
            element = prob_equal(a, b, StateVector(psi)).element
            inside = xm.mat_vec(element.matrix, random_state_vector(rng, dim))
            for state in (psi, inside) if any(inside) else (psi,):
                values = set(a.eigenvalues()) | set(b.eigenvalues())
                pa = {v: xm.mat_vec(a.projection_for(v).matrix, state) for v in values}
                pb = {v: xm.mat_vec(b.projection_for(v).matrix, state) for v in values}
                correlated = all(pa[v] == pb[v] for v in values)
                assert correlated == all(xm.inner(pa[x], pb[y]).is_zero()
                                         for x in values for y in values if x != y)
                assert (prob_equal(a, b, StateVector(state)).value == 1) == correlated
                correlated_count += correlated
                uncorrelated_count += not correlated
    assert correlated_count >= 50 and uncorrelated_count >= 50


def test_spectral_commutes_matches_all_pairs(monkeypatch):
    # the last eigenprojection of each side is I minus the others, so only
    # the pairs without it are tested: none for a scalar, one for two
    # two-valued observables
    rng = random.Random(96)
    cases = []
    for dim in (2, 3, 4):
        for _ in range(8):
            a = random_spectral_data(rng, dim)
            commuting = SpectralData(dim=dim, eigen=tuple(
                (v + 1, p) for v, p in a.eigen))
            scalar = random_spectral_data(rng, dim, n_eigenvalues=1)
            cases += [(a, random_spectral_data(rng, dim)), (a, commuting),
                      (scalar, a), (a, scalar), (scalar, scalar)]
            if dim > 2:  # one eigenprojection commutes with the other side
                cases.append(_sharing_pair(rng, dim))
    answers = set()
    for a, b in cases:
        assert spectral_commutes(a, b) == _commutes_all_pairs(a, b)
        answers.add(spectral_commutes(a, b))
    assert answers == {True, False}
    calls = []
    real = Projection.commutes_with

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(Projection, "commutes_with", counted)
    scalar, a = (random_spectral_data(rng, 3, n_eigenvalues=n) for n in (1, 2))
    assert spectral_commutes(scalar, a) and spectral_commutes(a, scalar)
    assert calls == []
    spectral_commutes(a, random_spectral_data(rng, 3, n_eigenvalues=2))
    assert len(calls) == 1


def test_truth_eq_of_a_real_and_its_refinement_takes_no_row_reduction(monkeypatch):
    # each cut pair is one object twice, so agreement has no rows to reduce
    sd = random_spectral_data(random.Random(97), 4, n_eigenvalues=3)
    q = qreal_from_spectral(sd, sd.eigenvalues())
    refined = q.refined([Fraction(-100), Fraction(1, 7)])

    def refuse(rows):
        raise AssertionError("row reduction")

    monkeypatch.setattr(xm, "kernel_basis", refuse)
    assert truth_eq(q, refined) is q.lattice.top()
    assert truth_eq(refined, q) is q.lattice.top()


def test_truth_eq_rejects_reals_of_different_lattices():
    a = qreal_from_spectral(diag_observable([1, 2]), [1, 2])
    b = qreal_from_spectral(diag_observable([1, 2, 3]), [1, 2, 3])
    with pytest.raises(LatticeError, match="different lattices"):
        truth_eq(a, b)
    with pytest.raises(LatticeError, match="different lattices"):
        truth_leq(a, b)


def test_at_reads_the_step_rule():
    q = qreal_from_spectral(diag_observable([1, 3]), [1, 3])
    assert q.at(Fraction(1, 2)) == zero_projection(2)
    assert q.at(1) == q.at(2) == q.cut(1)
    assert q.at(3) == q.at(100) == identity_projection(2)


def _cut_family(lattice, grid, cuts):
    """A QReal-shaped cut family without the monotone/top validation:
    R(u) is 1 on every valid quantum real, so only arbitrary families tell
    two ways of computing it apart."""
    q = object.__new__(QReal)
    object.__setattr__(q, "lattice", lattice)
    object.__setattr__(q, "grid", tuple(Fraction(g) for g in grid))
    object.__setattr__(q, "cuts", tuple(cuts))
    return q


def test_real_predicate_matches_the_formula_route():
    rng = random.Random(92)
    values_seen = set()
    for _ in range(30):
        dim = rng.randint(2, 3)
        lat = ProjectionLattice(dim)
        n = rng.randint(1, 12)
        if rng.random() < 0.5:
            sd = random_spectral_data(rng, dim)
            q = qreal_from_spectral(sd, sd.eigenvalues()).refined(
                rng.sample(range(-20, 20), n - 1))
        else:
            q = _cut_family(lat, range(n), [random_projection(rng, dim) for _ in range(n)])
        got = real_predicate_truth(q)
        assert got == _real_predicate_oracle(q)
        values_seen.add(got == q.lattice.top())
    assert values_seen == {True, False}


def test_real_predicate_on_long_grids():
    # 60 and 400 half-integer points besides the spectrum, in the
    # projection lattice
    sd = random_spectral_data(random.Random(93), 2, n_eigenvalues=2)
    for half in (30, 200):
        q = qreal_from_spectral(sd, sd.eigenvalues()).refined(
            Fraction(2 * k + 1, 2) for k in range(-half, half))
        assert len(q.grid) >= 2 * half
        assert real_predicate_truth(q) == q.lattice.top()
    # 122 points over a Boolean lattice
    lat = BooleanLattice(2)
    cuts = [0] * 40 + [lat.atom(0)] * 40 + [lat.top()] * 42
    q = QReal(lat, tuple(range(122)), tuple(cuts))
    assert real_predicate_truth(q) == lat.top()
