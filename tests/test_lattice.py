"""Boolean and projection lattice operations and the law suite."""

import random
from itertools import product

import pytest

from lvset.exactnum import gq
from lvset.lattice import (MAX_BOOLEAN_ATOMS, BooleanLattice, LatticeError,
                           ProjectionLattice, lattice_from_json,
                           lattice_to_json, verify_laws)
from lvset.projections import proj_from_span


def test_boolean_basic_ops_match_sets():
    # bitmask ops must agree with subset algebra on the atom powerset
    lat = BooleanLattice(3)
    universe = frozenset(range(3))

    def as_set(x):
        return frozenset(i for i in range(3) if x & (1 << i))

    for a, b in product(lat.elements(), repeat=2):
        assert as_set(lat.meet(a, b)) == as_set(a) & as_set(b)
        assert as_set(lat.join(a, b)) == as_set(a) | as_set(b)
        assert as_set(lat.ortho(a)) == universe - as_set(a)
        assert lat.leq(a, b) == (as_set(a) <= as_set(b))


def test_boolean_sasaki_is_classical_implication():
    lat = BooleanLattice(3)
    for a, b in product(lat.elements(), repeat=2):
        assert lat.sasaki_arrow(a, b) == lat.join(lat.ortho(a), b)


def test_boolean_limits():
    with pytest.raises(LatticeError):
        BooleanLattice(0)
    with pytest.raises(LatticeError):
        BooleanLattice(MAX_BOOLEAN_ATOMS + 1)
    BooleanLattice(MAX_BOOLEAN_ATOMS)  # fine


def test_boolean_element_repr_round_trip():
    lat = BooleanLattice(3)
    for a in lat.elements():
        assert lat.element_from_json(lat.element_repr(a)) == a
        assert lat.element_from_json(lat.element_to_json(a)) == a
    assert lat.element_repr(lat.top()) == "1"
    assert lat.element_repr(0) == "0"
    assert lat.element_from_json("1") == lat.top()
    assert lat.element_from_json("a0|a2") == lat.atom(0) | lat.atom(2)
    with pytest.raises(LatticeError):
        lat.element_from_json("b1")
    with pytest.raises(LatticeError):
        lat.element_from_json(1 << 5)


def test_boolean_commutes_everywhere():
    lat = BooleanLattice(2)
    for a, b in product(lat.elements(), repeat=2):
        assert lat.commutes(a, b)


def test_projection_lattice_sasaki_examples():
    lat = ProjectionLattice(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    # noncommuting rank-1 pair: meet is 0, so the arrow collapses to the complement
    assert lat.meet(p, q) == lat.bottom()
    assert lat.sasaki_arrow(p, q) == lat.ortho(p)
    # arrow is 1 exactly on comparable pairs
    assert lat.sasaki_arrow(p, p) == lat.top()
    assert lat.sasaki_arrow(lat.bottom(), q) == lat.top()
    assert lat.sasaki_arrow(p, lat.top()) == lat.top()
    assert not lat.commutes(p, q)
    assert lat.commutes(p, lat.ortho(p))
    # a generic random pair of rank-1 projections does not commute either
    from lvset.generators import random_projection
    rng = random.Random(7)
    r, s = (random_projection(rng, 2, rank=1) for _ in range(2))
    assert not lat.commutes(r, s)


def test_big_meet_big_join_empty_and_order():
    lat = BooleanLattice(2)
    assert lat.big_meet([]) == lat.top()
    assert lat.big_join([]) == lat.bottom()
    xs = [1, 2, 3]
    assert lat.big_meet(xs) == 1 & 2 & 3
    assert lat.big_join(xs) == 1 | 2 | 3


def test_lattice_json_round_trip():
    for lat in (BooleanLattice(2), ProjectionLattice(3)):
        again = lattice_from_json(lattice_to_json(lat))
        assert again == lat


def test_verify_laws_boolean_full():
    for atoms in (1, 2, 3, 8):
        report = verify_laws(BooleanLattice(atoms))
        assert report.ortholattice_ok()
        assert report.orthomodular
        assert report.distributive
        assert report.pairs_checked == (2 ** atoms) ** 2
        assert report.triples_checked == (2 ** atoms) ** 3


def test_verify_laws_projection_finds_distributivity_violation():
    report = verify_laws(ProjectionLattice(2))
    assert report.ortholattice_ok()
    assert report.orthomodular
    assert not report.distributive
    a, b, c = report.distributivity_witness
    lat = ProjectionLattice(2)
    assert lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c))


def test_verify_laws_projection_random_sample():
    from lvset.generators import random_projection
    rng = random.Random(5)
    lat = ProjectionLattice(3)
    sample = [lat.bottom(), lat.top()]
    sample += [random_projection(rng, 3) for _ in range(8)]
    report = verify_laws(lat, sample=sample)
    assert report.ortholattice_ok()
    assert report.orthomodular
    assert not report.distributive


def test_law_report_json_shape():
    lat = BooleanLattice(2)
    doc = verify_laws(lat).to_json(lat)
    assert doc["kind"] == "boolean"
    assert doc["distributive"] is True
    assert set(doc["laws"]) >= {"complement-meet", "de-morgan", "orthomodularity"}

    plat = ProjectionLattice(2)
    doc = verify_laws(plat).to_json(plat)
    assert doc["distributive"] is False
    assert len(doc["distributivity_witness"]) == 3
    # witness must be serialized matrices, not reprs
    assert isinstance(doc["distributivity_witness"][0], list)


def test_projection_trivial_meet_join_match_row_reduction():
    # meets and joins against 1, 0 or the argument itself are answered by
    # the lattice identities; they must agree with the full row reduction
    from lvset.generators import random_projection
    from lvset.projections import subspace_join, subspace_meet
    rng = random.Random(17)
    for dim in (2, 3, 4):
        lat = ProjectionLattice(dim)
        for _ in range(4):
            p = random_projection(rng, dim)
            for other in (lat.top(), lat.bottom(), p):
                for a, b in ((p, other), (other, p)):
                    assert lat.meet(a, b) == subspace_meet(a, b)
                    assert lat.join(a, b) == subspace_join(a, b)
    lat = ProjectionLattice(3)
    small = ProjectionLattice(2)
    for a, b in ((lat.top(), small.top()), (small.bottom(), lat.bottom()),
                 (small.top(), lat.bottom()), (lat.top(), small.bottom())):
        with pytest.raises(LatticeError):
            lat.meet(a, b)
        with pytest.raises(LatticeError):
            lat.join(a, b)


def test_projection_lattice_memo_matches_direct_ops():
    # memoized results equal the direct computations, and a repeated call
    # returns the very object the first call computed
    from lvset.generators import random_projection
    from lvset.projections import subspace_join, subspace_meet
    rng = random.Random(23)
    for dim in (2, 3, 4):
        lat = ProjectionLattice(dim)
        ps = [random_projection(rng, dim, rank=rng.randint(1, dim - 1))
              for _ in range(3)]
        for a, b in product(ps, repeat=2):
            assert lat.meet(a, b) == subspace_meet(a, b)
            assert lat.join(a, b) == subspace_join(a, b)
            assert lat.leq(a, b) == a.leq(b)
            assert lat.meet(a, b) is lat.meet(a, b)
            assert lat.join(a, b) is lat.join(a, b)
        for a in ps:
            assert lat.ortho(a) == a.complement()
            assert lat.ortho(a) is lat.ortho(a)


def test_projection_lattice_memo_belongs_to_one_lattice(monkeypatch):
    from lvset import projections as pj
    calls = []
    real_meet = pj.subspace_meet

    def counted(*args):
        calls.append(args)
        return real_meet(*args)

    monkeypatch.setattr(pj, "subspace_meet", counted)
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    lat = ProjectionLattice(2)
    assert lat.meet(p, q) == lat.meet(p, q) == lat.bottom()
    assert len(calls) == 1
    # an equal but distinct lattice object has its own memo
    assert ProjectionLattice(2).meet(p, q) == lat.bottom()
    assert len(calls) == 2


def test_projection_lattice_results_are_validated_once_and_reused():
    # every result passes the public validator and equals the same operation
    # on a fresh lattice; rank-0 and full results are this lattice's own
    # bounds, and a complement's complement is the original object
    from lvset.generators import random_projection
    from lvset.projections import (Projection, lattice_commutator,
                                   subspace_join, subspace_meet)
    rng = random.Random(41)
    for dim in (2, 3, 4):
        lat = ProjectionLattice(dim)
        ps = [random_projection(rng, dim, rank=rng.randint(1, dim - 1))
              for _ in range(4)]
        ps += [lat.ortho(ps[0]), lat.top(), lat.bottom()]
        results = []
        for a, b in product(ps, repeat=2):
            fresh = ProjectionLattice(dim)
            for got, want in ((lat.meet(a, b), subspace_meet(a, b)),
                              (lat.join(a, b), subspace_join(a, b)),
                              (lat.meet(a, b), fresh.meet(a, b)),
                              (lat.join(a, b), fresh.join(a, b)),
                              (lat.commutator([a, b]), lattice_commutator([a, b]))):
                assert got == want
                results.append(got)
        for a in ps:
            assert lat.ortho(a) == a.complement() == ProjectionLattice(dim).ortho(a)
            assert lat.ortho(lat.ortho(a)) is a
            results.append(lat.ortho(a))
        ranks = set()
        for r in results:
            assert Projection(r.matrix) == r
            rank = r.rank()
            ranks.add(rank)
            if rank in (0, dim):
                assert r is (lat.bottom() if rank == 0 else lat.top())
        assert {0, dim} <= ranks
    # results of an empty or full span are the bounds, not new projections
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    lat = ProjectionLattice(2)
    assert lat.meet(p, q) is lat.bottom()
    assert lat.join(p, q) is lat.top()


def test_projection_lattice_complements_each_value_once(monkeypatch):
    from lvset.projections import Projection
    calls = []
    real = Projection.complement

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Projection, "complement", counted)
    p = proj_from_span([(gq(1), gq(2))], 2)
    lat = ProjectionLattice(2)
    pc = lat.ortho(p)
    assert lat.ortho(pc) is p and lat.ortho(p) is pc
    assert lat.ortho(lat.top()) is lat.bottom()
    assert lat.ortho(lat.bottom()) is lat.top()
    assert calls == [p]


def test_bounds_are_one_object_per_dimension():
    from lvset.projections import (identity_projection, lattice_commutator,
                                   subspace_join, subspace_meet,
                                   zero_projection)
    assert ProjectionLattice(3).top() is ProjectionLattice(3).top() is identity_projection(3)
    assert ProjectionLattice(3).bottom() is zero_projection(3)
    assert zero_projection(3) is not zero_projection(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    assert subspace_meet(p, q) is zero_projection(2)
    assert subspace_join(p, q) is identity_projection(2)
    assert lattice_commutator([p, q]) is zero_projection(2)
    assert lattice_commutator([p]) is identity_projection(2)
    assert proj_from_span([(gq(0), gq(0))], 2) is zero_projection(2)


def test_projection_lattice_leq_answers_trivial_pairs_by_law(monkeypatch):
    # a ≤ a, 0 ≤ b, a ≤ 1, 1 ≤ b and a ≤ 0 never reach the exact product;
    # equal but distinct objects count as equal
    from lvset.generators import random_projection
    from lvset.projections import (Projection, identity_projection,
                                   zero_projection)
    real = Projection.leq
    calls = []

    def counted(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Projection, "leq", counted)
    rng = random.Random(43)
    for dim in (2, 3, 4):
        lat = ProjectionLattice(dim)
        zero, one = zero_projection(dim), identity_projection(dim)
        ps = [random_projection(rng, dim, rank=rng.randint(1, dim - 1))
              for _ in range(4)]
        column = next(c for c in zip(*ps[0].matrix) if any(x for x in c))
        values = ps + [proj_from_span([column], dim), Projection(ps[1].matrix),
                       zero, one, Projection(zero.matrix), Projection(one.matrix)]
        for a, b in product(values, repeat=2):
            before = len(calls)
            assert lat.leq(a, b) == real(a, b)
            if a == b or zero in (a, b) or one in (a, b):
                assert len(calls) == before
        assert calls
        for a, b in calls:
            assert a != b and zero not in (a, b) and one not in (a, b)
        calls.clear()
    lat = ProjectionLattice(2)
    for a, b in ((zero_projection(2), identity_projection(3)),
                 (identity_projection(3), identity_projection(2)),
                 (zero_projection(3), zero_projection(2))):
        with pytest.raises(LatticeError, match="dimension mismatch"):
            lat.leq(a, b)


def test_lattice_commutator_method():
    from lvset.generators import random_projection
    from lvset.projections import (commutator_pair_closed_form,
                                   lattice_commutator)
    rng = random.Random(29)
    for dim in (2, 3, 4):
        lat = ProjectionLattice(dim)
        assert lat.commutator([]) == lat.top()
        ps = [random_projection(rng, dim, rank=rng.randint(1, dim - 1))
              for _ in range(3)]
        for a, b in product(ps, repeat=2):
            assert lat.commutator([a, b]) == commutator_pair_closed_form(a, b)
        family = ps + [lat.ortho(ps[1])]
        expected = lattice_commutator(family)
        for order in (family, family[::-1], family + [ps[0], ps[2]]):
            assert lat.commutator(order) == expected
        assert lat.commutator(family) is lat.commutator(reversed(family))
    blat = BooleanLattice(2)
    assert blat.commutator([]) == blat.top()
    assert blat.commutator([1, 2, 1]) == blat.top()
