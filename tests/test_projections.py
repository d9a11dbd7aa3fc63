"""Exact projection operators, subspace lattice operations, commutators."""

import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest

from lvset import exactmat as xm
from lvset.exactnum import ONE, ZERO, gq
from lvset.generators import (random_commuting_pair, random_orthogonal_basis,
                              random_projection, random_projection_pair,
                              random_spectral_data)
from lvset.lattice import ProjectionLattice
from lvset.projections import (LatticeError, Projection, SpectralData,
                               commutator_pair_closed_form,
                               identity_projection, lattice_commutator,
                               matrix_from_json, matrix_to_json,
                               proj_from_span,
                               projection_from_json, projection_to_json,
                               spectral_from_json, spectral_to_json,
                               subspace_join, subspace_meet, zero_projection)


def test_projection_validation_rejects_non_projections():
    with pytest.raises(LatticeError):
        Projection(((ONE, ONE), (ZERO, ONE)))  # idempotent but not hermitian
    with pytest.raises(LatticeError):
        Projection(((gq(2), ZERO), (ZERO, ZERO)))  # hermitian but not idempotent
    with pytest.raises(LatticeError):
        Projection(((ONE, ZERO),))  # not square


# ------------------------------------------------------------- interning

def _e(*xs):
    return tuple(gq(x) for x in xs)


def test_projection_has_one_equality_rule():
    assert "__eq__" not in vars(Projection) and "__hash__" not in vars(Projection)
    assert isinstance(Projection._interned, weakref.WeakValueDictionary)


def test_equal_matrices_are_one_object_wherever_built():
    half = gq(Fraction(1, 2))
    m = ((half, half), (half, half))
    p = Projection(m)
    assert Projection(m) is p
    # a rebuilt matrix of fresh entries, not the same tuple
    assert Projection(matrix_from_json(matrix_to_json(m))) is p
    assert proj_from_span([_e(1, 1)], 2) is p
    # two spanning sets of one plane in dimension 3
    plane = proj_from_span([_e(1, 0, 0), _e(0, 1, 1)], 3)
    assert proj_from_span([_e(1, 1, 1), _e(1, -1, -1), _e(3, 2, 2)], 3) is plane
    rng = random.Random(3)
    for dim in (2, 3, 4):
        for _ in range(5):
            a, b = random_projection(rng, dim), random_projection(rng, dim)
            assert a.complement().complement() is a
            assert subspace_meet(a, b) is subspace_meet(b, a)
            assert subspace_join(a, b) is subspace_join(b, a)
    # a meet equal to a pool value is that value
    line = proj_from_span([_e(1, 0, 0)], 3)
    other_plane = proj_from_span([_e(1, 0, 0), _e(0, 1, -1)], 3)
    assert subspace_meet(plane, other_plane) is line
    assert ProjectionLattice(3).meet(plane, other_plane) is line


def test_a_rejected_matrix_is_not_registered():
    table = Projection._interned
    size = len(table)
    bad = ((gq(2), ZERO), (ZERO, ZERO))  # Hermitian, not idempotent
    with pytest.raises(LatticeError, match="idempotent") as first:
        Projection(bad)
    # while the failed object is still reachable from the traceback
    with pytest.raises(LatticeError, match="idempotent"):
        Projection(bad)
    assert first.value and len(table) == size and bad not in table


def test_a_dict_keyed_by_a_projection_finds_an_equal_rebuild():
    rng = random.Random(8)
    p = random_projection(rng, 3)
    counts = {p: 1}
    again = projection_from_json(projection_to_json(p))
    assert again in counts and counts[again] == 1
    assert {p, again, p.complement().complement()} == {p}


def test_copies_are_refused():
    p = identity_projection(2)
    for make_copy in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        with pytest.raises(TypeError):
            make_copy(p)


def test_the_table_frees_projections_nothing_holds():
    table = Projection._interned
    zero_projection(3), identity_projection(3)
    gc.collect()
    size = len(table)
    rng = random.Random(21)
    for _ in range(300):
        p = random_projection(rng, 3)
        subspace_meet(p, random_projection(rng, 3)).complement()
    del p
    gc.collect()
    assert len(table) <= size


def test_proj_from_span_examples():
    p = proj_from_span([(gq(1), gq(1))], 2)
    half = gq(Fraction(1, 2))
    assert p.matrix == ((half, half), (half, half))
    assert p.rank() == 1
    assert proj_from_span([], 3) == zero_projection(3)
    # span is basis independent
    q = proj_from_span([(gq(2), gq(2))], 2)
    assert q == p


def test_order_and_complement():
    rng = random.Random(11)
    for dim in (2, 3, 4):
        for _ in range(25):
            p = random_projection(rng, dim)
            q = random_projection(rng, dim)
            pc = p.complement()
            assert subspace_meet(p, pc) == zero_projection(dim)
            assert subspace_join(p, pc) == identity_projection(dim)
            assert pc.complement() == p
            assert p.rank() + pc.rank() == dim
            # leq is the algebraic order: p <= q iff qp = p
            m = subspace_meet(p, q)
            j = subspace_join(p, q)
            assert m.leq(p) and m.leq(q)
            assert p.leq(j) and q.leq(j)
            assert m.rank() + j.rank() == p.rank() + q.rank()
            # de Morgan
            assert subspace_meet(p, q).complement() == subspace_join(pc, q.complement())


def test_meet_join_idempotent_commutative():
    rng = random.Random(12)
    for _ in range(20):
        p, q = random_projection_pair(rng, 3)
        assert subspace_meet(p, p) == p
        assert subspace_join(p, p) == p
        assert subspace_meet(p, q) == subspace_meet(q, p)
        assert subspace_join(p, q) == subspace_join(q, p)


def test_commuting_pair_meet_is_product():
    rng = random.Random(13)
    for dim in (2, 3, 4):
        for _ in range(20):
            p, q = random_commuting_pair(rng, dim)
            prod = xm.mat_mul(p.matrix, q.matrix)
            assert subspace_meet(p, q).matrix == prod


def _flat(m):
    return tuple(x for row in m for x in row)


def reference_commutator(projections):
    """The commutator computed inside the word algebra A(S): E = I − e, where
    e is the unit of the two-sided ideal generated by all commutators of
    A(S). e is the sum of the non-commutative central blocks of A(S), so
    I − e is the sum of the commutative ones. An independent oracle for the
    sign-meet join of `lattice_commutator`."""
    gens = list(projections)
    dim = gens[0].dim
    eye = xm.identity(dim)
    gen_mats = list(dict.fromkeys(g.matrix for g in gens))

    # Word algebra: span of I and all products of generators, closed under
    # right multiplication once a full round adds nothing.
    algebra = [eye]
    span = xm.Span()
    span.add(_flat(eye))
    frontier = []
    for g in gen_mats:
        if span.add(_flat(g)):
            algebra.append(g)
            frontier.append(g)
    while frontier and span.dim() < dim * dim:
        new_frontier = []
        for w in frontier:
            for g in gen_mats:
                prod = xm.mat_mul(w, g)
                if span.add(_flat(prod)):
                    algebra.append(prod)
                    new_frontier.append(prod)
        frontier = new_frontier

    commutator_span = xm.Span()
    ideal = []
    for i, a in enumerate(algebra):
        for b in algebra[i + 1:]:
            ab, ba = xm.mat_mul(a, b), xm.mat_mul(b, a)
            c = tuple(tuple(x - y for x, y in zip(r, t)) for r, t in zip(ab, ba))
            if commutator_span.add(_flat(c)):
                ideal.append(c)
    if not ideal:
        return identity_projection(dim)

    # Close the commutator span into a two-sided ideal of A(S).
    frontier = list(ideal)
    while frontier:
        new_frontier = []
        for j in frontier:
            for g in gen_mats:
                for prod in (xm.mat_mul(g, j), xm.mat_mul(j, g)):
                    if commutator_span.add(_flat(prod)):
                        ideal.append(prod)
                        new_frontier.append(prod)
        frontier = new_frontier
    return Projection(xm.identity_minus(_ideal_unit(ideal)))


def _ideal_unit(basis):
    """Unit element of the (semisimple, *-closed) ideal spanned by basis:
    e = Σ x_j basis_j with e·b = b for every basis element b."""
    k = len(basis)
    width = len(basis[0]) ** 2
    rows = []
    for b in basis:
        products = [_flat(xm.mat_mul(bj, b)) for bj in basis]
        fb = _flat(b)
        for pos in range(width):
            rows.append([products[j][pos] for j in range(k)] + [fb[pos]])
    reduced, pivots = xm.rref(rows)
    assert all(c < k for c in pivots), "commutator ideal has no unit"
    unit = xm.zeros(len(basis[0]), len(basis[0]))
    for r, c in enumerate(pivots):
        unit = xm.mat_add(unit, xm.mat_scale(reduced[r][k], basis[c]))
    for b in basis:
        assert xm.product_equals(unit, b, b) and xm.product_equals(b, unit, b)
    return unit


def _random_family(rng, dim):
    """1-6 members mixing generic projections, commuting pairs, complements,
    duplicates, both bounds and orthogonal flags."""
    kind = rng.choice(["generic", "commuting", "flag", "mixed"])
    if kind == "generic":
        family = [random_projection(rng, dim) for _ in range(rng.randint(1, 4))]
    elif kind == "commuting":
        family = list(random_commuting_pair(rng, dim))
        family.append(random_projection(rng, dim))
    elif kind == "flag":
        # a chain of spans of an orthogonal basis, plus one random projection
        basis = random_orthogonal_basis(rng, dim)
        family = [proj_from_span(basis[:k], dim) for k in range(1, dim)]
        family.append(random_projection(rng, dim, rank=rng.randint(1, dim - 1)))
    else:
        family = [random_projection(rng, dim), *random_commuting_pair(rng, dim)]
    if rng.random() < 0.4:
        family.append(rng.choice(family).complement())
    if rng.random() < 0.3:
        family.append(rng.choice(family))
    if rng.random() < 0.3:
        family.append(rng.choice([zero_projection(dim), identity_projection(dim)]))
    return family[:6]


def test_lattice_commutator_matches_word_algebra_oracle():
    rng = random.Random(18)
    families = nontrivial = large = 0
    # the oracle takes about 0.2 s per dim-4 family, so dim 4 gets fewer
    for dim, count in ((2, 80), (3, 80), (4, 40)):
        for _ in range(count):
            family = _random_family(rng, dim)
            expected = reference_commutator(family)
            got = lattice_commutator(family)
            assert got == expected
            # member order and duplicates do not matter
            shuffled = family + family[:2]
            rng.shuffle(shuffled)
            assert lattice_commutator(shuffled) == got
            families += 1
            nontrivial += got not in (zero_projection(dim), identity_projection(dim))
            large += len(family) >= 3
    assert families >= 200 and nontrivial >= 15 and large >= 50


def test_warm_lattice_commutator_matches_word_algebra_oracle():
    # one lattice per dimension serves many overlapping families, with
    # repeats, both bounds and the meets and joins of evaluation in between,
    # so a stale or misfiled memo entry would show as a wrong commutator
    rng = random.Random(61)
    expected = {}  # (dim, frozenset(family)) -> oracle commutator
    checked = nontrivial = 0
    for dim, count in ((2, 40), (3, 40), (4, 15)):
        lat = ProjectionLattice(dim)
        pool = [random_projection(rng, dim, rank=rng.randint(1, dim - 1))
                for _ in range(3)]
        pool += [*random_commuting_pair(rng, dim), lat.ortho(pool[0]),
                 zero_projection(dim), identity_projection(dim)]
        for _ in range(count):
            family = rng.choices(pool, k=rng.randint(1, 5))
            a, b = rng.sample(pool, 2)
            lat.meet(a, b), lat.join(lat.ortho(a), b)
            key = (dim, frozenset(family))
            if key not in expected:
                expected[key] = reference_commutator(family)
            got = lat.commutator(family)
            assert got is expected[key]
            checked += 1
            nontrivial += got not in (zero_projection(dim), identity_projection(dim))
    assert checked > len(expected) >= 60 and nontrivial >= 10


def test_lattice_commutator_matches_closed_form():
    # the sign-meet join must agree with the four-meet formula on pairs
    rng = random.Random(14)
    checked = 0
    for dim in (2, 3, 4):
        for _ in range(35):
            p, q = random_projection_pair(rng, dim)
            assert lattice_commutator([p, q]) == commutator_pair_closed_form(p, q)
            checked += 1
    assert checked >= 100


def test_lattice_commutator_commuting_gives_identity():
    rng = random.Random(15)
    for dim in (2, 3, 4):
        for _ in range(15):
            p, q = random_commuting_pair(rng, dim)
            assert lattice_commutator([p, q]) == identity_projection(dim)
    # and trivial families
    with pytest.raises(LatticeError):
        lattice_commutator([])
    p = random_projection(random.Random(1), 3)
    assert lattice_commutator([p]) == identity_projection(3)
    assert lattice_commutator([p, zero_projection(3), identity_projection(3)]) == identity_projection(3)


def test_lattice_commutator_noncommuting_dim2_is_zero():
    # in dim 2 any noncommuting pair generates everything, so the commutator is 0
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    assert lattice_commutator([p, q]) == zero_projection(2)


def test_lattice_commutator_dim4_block_example():
    # two copies of a noncommuting dim-2 pair placed in orthogonal blocks:
    # the first block is scrambled, the second commutes, so the commutator
    # must be exactly the projection onto the second block.
    def block(p2, offset):
        rows = [[ZERO] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                rows[offset + i][offset + j] = p2.matrix[i][j]
        return Projection(tuple(tuple(r) for r in rows))

    p2 = proj_from_span([(gq(1), gq(0))], 2)
    q2 = proj_from_span([(gq(1), gq(1))], 2)
    p = block(p2, 0)
    # q acts like q2 on the first block and like p2 (commuting with p) on the second
    rows = [[ZERO] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = q2.matrix[i][j]
            rows[2 + i][2 + j] = p2.matrix[i][j]
    q = Projection(tuple(tuple(r) for r in rows))

    second_block = proj_from_span([(ZERO, ZERO, gq(1), ZERO), (ZERO, ZERO, ZERO, gq(1))], 4)
    com = lattice_commutator([p, q])
    assert com == second_block
    assert com == commutator_pair_closed_form(p, q)


def test_spectral_data_validation_and_reconstruction():
    rng = random.Random(16)
    for dim in (2, 3, 4):
        for _ in range(10):
            sd = random_spectral_data(rng, dim)
            # projections resolve the identity and are pairwise orthogonal
            total = zero_projection(dim)
            for i, (_, p) in enumerate(sd.eigen):
                total = subspace_join(total, p)
                for _, q in sd.eigen[i + 1:]:
                    assert subspace_meet(p, q) == zero_projection(dim)
            assert total == identity_projection(dim)
            # operator matrix reproduces the eigenvalue action
            m = sd.operator_matrix()
            for value, p in sd.eigen:
                mp = xm.mat_mul(m, p.matrix)
                scaled = xm.mat_scale(gq(value), p.matrix)
                assert mp == scaled

    with pytest.raises(LatticeError):
        SpectralData(dim=2, eigen=((Fraction(1), identity_projection(2)),
                                   (Fraction(2), identity_projection(2))))
    with pytest.raises(LatticeError):
        # does not resolve the identity
        SpectralData(dim=2, eigen=((Fraction(1), proj_from_span([(gq(1), gq(0))], 2)),))


@pytest.mark.parametrize("dim", [-1, 0, "2"])
def test_spectral_data_needs_dimension_one_or_more(dim):
    # an empty eigen list sums to the empty identity, so only this check stops it
    with pytest.raises(LatticeError, match="dimension >= 1"):
        SpectralData(dim=dim, eigen=())
    with pytest.raises(LatticeError, match="dimension >= 1"):
        spectral_from_json({"dim": dim, "eigen": []})


@pytest.mark.parametrize("rows", [1, [1], "10", {}, [[1, 0], 1]])
def test_matrix_from_json_needs_a_list_of_lists(rows):
    with pytest.raises(LatticeError, match="list of rows"):
        matrix_from_json(rows)


def test_projection_for_lookup():
    sd = SpectralData(dim=2, eigen=(
        (Fraction(0), proj_from_span([(gq(0), gq(1))], 2)),
        (Fraction(1), proj_from_span([(gq(1), gq(0))], 2)),
    ))
    assert sd.eigenvalues() == [Fraction(0), Fraction(1)]
    assert sd.projection_for(Fraction(1)).rank() == 1
    assert sd.projection_for(Fraction(7)) == zero_projection(2)


def test_json_round_trips():
    rng = random.Random(17)
    p = random_projection(rng, 3)
    assert projection_from_json(projection_to_json(p)) == p
    assert matrix_from_json(matrix_to_json(p.matrix)) == p.matrix
    sd = random_spectral_data(rng, 3)
    again = spectral_from_json(spectral_to_json(sd))
    assert again.eigen == sd.eigen



def test_seeded_generator_streams_are_pinned():
    # literal values of one seeded stream; the generators' fixed spreads and
    # pool widths must keep every seeded workload reproducible
    from lvset.exactnum import format_entry
    from lvset.generators import random_qset_pool, random_state_vector, random_vector
    from lvset.lattice import ProjectionLattice
    rng = random.Random(11)
    assert [format_entry(x) for x in random_vector(rng, 3)] == [
        ["0", "3/2"], ["0", "1"], ["-2", "1"]]
    assert [format_entry(x) for x in random_state_vector(rng, 2)] == [
        ["0", "1"], ["-3/2", "-1"]]
    sd = random_spectral_data(rng, 3, n_eigenvalues=3)
    assert sd.eigenvalues() == [Fraction(-5, 6), Fraction(-2, 3), Fraction(0)]
    lat = ProjectionLattice(2)
    pool = random_qset_pool(rng, lat, [lat.bottom(), lat.top()], 8)
    position = {m: i for i, m in enumerate(pool)}
    assert [[position[k] for k in m.domain()] for m in pool] == [
        [], [0], [], [], [0, 1, 2], [1], [3, 5, 4], [0, 2]]
