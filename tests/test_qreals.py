"""Quantum reals as spectral cuts, Born probabilities, the real predicate."""

import random
from fractions import Fraction

import pytest

from lvset import exactmat as xm
from lvset.exactnum import GQ, gq
from lvset.formula import Environment, eval_formula, parse
from lvset.generators import (random_commuting_pair, random_projection,
                              random_spectral_data, random_state_vector)
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
    # one lattice for both reals: one partial sum per real (the other cuts
    # are eigenprojections or bounds), the complements of the first two cuts
    # and of the shared second one, and one meet of rank 1. Meets and joins
    # of rank 0 or 3 are the dimension's zero and identity, built before
    # counting so the count does not depend on which test built them first.
    def e(*xs):
        return tuple(gq(x) for x in xs)

    a = diag_observable([1, 2, 3])
    b = SpectralData(dim=3, eigen=((Fraction(1), proj_from_span([e(1, 1, 0)], 3)),
                                   (Fraction(2), proj_from_span([e(1, -1, 0)], 3)),
                                   (Fraction(3), proj_from_span([e(0, 0, 1)], 3))))
    state = StateVector(e(1, 2, 1))
    zero_projection(3), identity_projection(3)
    calls = []
    real = Projection.__init__

    def counted(self, matrix):
        calls.append(matrix)
        real(self, matrix)

    monkeypatch.setattr(Projection, "__init__", counted)
    result = prob_equal(a, b, state)
    monkeypatch.undo()
    assert len(calls) == 6
    assert result.element == proj_from_span([e(0, 0, 1)], 3)
    assert result.value == Fraction(1, 6) and result.model_dependent


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
