"""Vectorized Boolean truth tables against the generic evaluator."""

import random

import numpy as np
import pytest

from lvset.fragment_tables import (ROW_TILE, TruthTables, boolean_truth_tables,
                                   check_substitutivity_everywhere,
                                   check_transitivity_everywhere,
                                   equivalence_labels,
                                   find_transitivity_counterexample,
                                   plane, transposed)
from lvset.formula import Environment, eval_formula, parse
from lvset.generators import random_qset_pool
from lvset.lattice import BooleanLattice, LatticeError, ProjectionLattice
from lvset.universe import EvalSession, UniverseFragment, enumerate_fragment
from lvset.verification import find_equality_axiom_violation, scott_solovay_suite


def test_tables_match_generic_evaluator():
    lat = BooleanLattice(2)
    frag = enumerate_fragment(lat, 3)  # 3125 members
    ft = boolean_truth_tables(frag)
    members = list(frag)
    session = EvalSession(lat)
    rng = random.Random(31)
    forall = parse("forall x in u . x in v")
    for _ in range(120):
        i = rng.randrange(len(members))
        j = rng.randrange(len(members))
        u, v = members[i], members[j]
        assert int(ft.eq[i, j]) == session.truth_equality(u, v)
        assert int(ft.mem[i, j]) == session.truth_membership(u, v)
        env = Environment(lat, bindings={"u": u, "v": v}, session=session)
        assert int(ft.fwd[i, j]) == eval_formula(forall, env)


def test_tables_small_fragment_exhaustive():
    lat = BooleanLattice(1)
    frag = enumerate_fragment(lat, 3)  # 27 members
    ft = boolean_truth_tables(frag)
    members = list(frag)
    session = EvalSession(lat)
    for i, u in enumerate(members):
        for j, v in enumerate(members):
            assert int(ft.eq[i, j]) == session.truth_equality(u, v)
            assert int(ft.mem[i, j]) == session.truth_membership(u, v)


@pytest.mark.parametrize("atoms", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tables_match_evaluator_on_unsorted_pools(atoms, seed):
    # random pools are grown bottom-up but not in rank order, so the fill
    # has to sort the members into rank layers and put them back
    lat = BooleanLattice(atoms)
    rng = random.Random(f"pool:{atoms}:{seed}")
    pool = random_qset_pool(rng, lat, lat.elements(), 36)
    ranks = [m.rank for m in pool]
    assert ranks != sorted(ranks)
    frag = UniverseFragment(lat, pool)
    ft = boolean_truth_tables(frag)
    session = EvalSession(lat)
    forall = parse("forall x in u . x in v")
    for i, u in enumerate(pool):
        for j, v in enumerate(pool):
            assert int(ft.eq[i, j]) == session.truth_equality(u, v)
            assert int(ft.mem[i, j]) == session.truth_membership(u, v)
            env = Environment(lat, bindings={"u": u, "v": v}, session=session)
            assert int(ft.fwd[i, j]) == eval_formula(forall, env)


def test_tables_reject_projection_fragments():
    from lvset.exactnum import gq
    from lvset.projections import proj_from_span
    lat = ProjectionLattice(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    frag = enumerate_fragment(lat, 2, values=[lat.bottom(), p, lat.top()])
    with pytest.raises(LatticeError):
        boolean_truth_tables(frag)


def test_eq_planes_are_equivalences():
    lat = BooleanLattice(2)
    frag = enumerate_fragment(lat, 3)
    ft = boolean_truth_tables(frag)
    for atom in range(ft.atoms):
        assert equivalence_labels(ft.eq, atom) is not None
    assert check_transitivity_everywhere(ft) is None
    assert check_substitutivity_everywhere(ft) is None


@pytest.mark.parametrize("shape", [(0, 3), (1, 700), (300, 517), (600, 600)])
def test_tiled_transpose_matches_numpy(shape):
    table = np.random.default_rng(7).integers(0, 256, shape, dtype=np.uint8)
    assert np.array_equal(transposed(table), table.T)
    out = np.zeros((shape[1] + 2, shape[0] + 2), dtype=np.uint8)
    transposed(table, out=out[1:-1, 1:-1])
    assert np.array_equal(out[1:-1, 1:-1], table.T)
    assert not out[0].any() and not out[-1].any()


def test_transitivity_counterexample_finder():
    # a reflexive symmetric relation that fails transitivity: 0~1, 1~2, not 0~2
    plane = np.array([
        [1, 1, 0],
        [1, 1, 1],
        [0, 1, 1],
    ], dtype=np.uint8)
    assert equivalence_labels(plane) is None
    witness = find_transitivity_counterexample(plane)
    assert witness is not None
    u, v, w = witness
    assert plane[u, v] and plane[v, w] and not plane[u, w]
    # and a genuine equivalence yields labels and no witness
    good = np.array([
        [1, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
    ], dtype=np.uint8)
    assert equivalence_labels(good) is not None
    assert find_transitivity_counterexample(good) is None


def fragment_reading(fragment, tables):
    """A fresh fragment over the same members whose truth tables are the
    given ones, so that no memo of the original fragment changes."""
    fresh = UniverseFragment(fragment.lattice, fragment.members)
    fresh.truth_tables = lambda: tables
    return fresh


def test_non_reflexive_eq_plane_is_reported_not_a_crash():
    # zero row and column 20 of EQ: the plane stays symmetric and
    # transitive, so it is no equivalence but has no transitivity triple
    fragment = enumerate_fragment(BooleanLattice(1), 3)
    tables = tables_copy(fragment.truth_tables())
    tables.eq[20, :] = 0
    tables.eq[:, 20] = 0
    assert equivalence_labels(tables.eq, 0) is None
    assert find_transitivity_counterexample(tables.eq, 0) is None
    assert check_transitivity_everywhere(tables) is None
    assert check_substitutivity_everywhere(tables) == ("reflexivity", 20, 20, 20)
    broken = fragment_reading(fragment, tables)
    sweeps = {s.schema: s for s in scott_solovay_suite(broken, cross_check=9).sweeps}
    assert not sweeps["eq-reflexivity"].passed
    assert not sweeps["subst-membership-left"].passed
    assert sweeps["eq-transitivity"].passed
    with pytest.raises(LatticeError, match="reflexivity fails at members 20, 20, 20"):
        find_equality_axiom_violation(broken)


def test_non_symmetric_eq_plane_is_reported():
    # reflexive and transitive, 0~1 without 1~0
    eq = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint8)
    zeros = np.zeros_like(eq)
    tables = TruthTables(atoms=1, top=1, fwd=zeros, mem=zeros, eq=eq)
    assert equivalence_labels(eq, 0) is None
    assert check_transitivity_everywhere(tables) is None
    assert check_substitutivity_everywhere(tables) == ("symmetry", 0, 1, 1)


def test_transitivity_triple_searched_once_per_broken_plane(monkeypatch):
    # plane 0 is not reflexive (no triple), plane 1 not transitive: the
    # suite and the violation search together search each plane once
    import lvset.fragment_tables as ft
    fragment = enumerate_fragment(BooleanLattice(2), 2)
    assert [list(labels) for labels in fragment.truth_tables().eq_labels()] == [
        [0, 0, 2, 0, 2], [0, 0, 0, 3, 3]]
    tables = tables_copy(fragment.truth_tables())
    tables.eq[4, :] &= ~np.uint8(1)
    tables.eq[:, 4] &= ~np.uint8(1)
    tables.eq[0, 3] |= 2
    tables.eq[3, 0] |= 2
    searched = []
    real = ft.find_transitivity_counterexample

    def counted(table, atom=0):
        searched.append(atom)
        return real(table, atom)

    monkeypatch.setattr(ft, "find_transitivity_counterexample", counted)
    broken = fragment_reading(fragment, tables)
    sweeps = {s.schema: s for s in scott_solovay_suite(broken, cross_check=9).sweeps}
    assert not sweeps["eq-transitivity"].passed
    with pytest.raises(LatticeError, match="reflexivity fails at members 4, 4, 4"):
        find_equality_axiom_violation(broken)
    assert check_transitivity_everywhere(tables) == (0, 3, 4)
    assert check_substitutivity_everywhere(tables) == ("reflexivity", 4, 4, 4)
    assert searched == [0, 1]


def test_tampered_membership_table_is_caught():
    # flip one membership bit: substitutivity scanning must locate a witness
    lat = BooleanLattice(1)
    frag = enumerate_fragment(lat, 3)
    ft = boolean_truth_tables(frag)
    eq_plane = plane(ft.eq, 0)
    labels = equivalence_labels(eq_plane)
    # find a pair (u, v) of distinct equal sets, then break u's row
    pairs = np.argwhere((eq_plane == 1) & ~np.eye(len(frag), dtype=bool))
    u, v = (int(x) for x in pairs[0])
    assert labels[u] == labels[v]
    ft.mem[u, 0] ^= 1
    witness = check_substitutivity_everywhere(ft)
    assert witness is not None
    kind = witness[0]
    assert kind in ("membership-left", "membership-right")


def test_tampered_membership_column_is_caught_in_column_order():
    # flip [[x in u]] for every x equal to w, for two (w, u): every
    # membership row stays constant on its equality class, columns 12 and
    # 20 no longer do. The class of w = 5 starts before that of w = 2, so
    # a (w, u) scan and a (u, w) scan meet different bad entries first.
    lat = BooleanLattice(1)
    frag = enumerate_fragment(lat, 3)
    ft = boolean_truth_tables(frag)
    eq_plane = plane(ft.eq, 0)
    for w, u in ((2, 12), (5, 20)):
        assert eq_plane[u].sum() > 1
        ft.mem[eq_plane[w].astype(bool), u] ^= 1
    # the witness a whole-plane column gather finds: the first bad (w, u)
    # in row-major order, oriented so that u is the container holding w
    mem_plane = plane(ft.mem, 0)
    labels = equivalence_labels(eq_plane)
    bad_w, bad_u = (int(x) for x in np.argwhere(mem_plane != mem_plane[:, labels])[0])
    bad_v = int(labels[bad_u])
    if not mem_plane[bad_w, bad_u]:
        bad_u, bad_v = bad_v, bad_u
    assert check_substitutivity_everywhere(ft) == ("membership-right", bad_u, bad_v, bad_w)
    assert mem_plane[bad_w, bad_u] and not mem_plane[bad_w, bad_v]


# ------------------------------------------------- witnesses past the first row tile

@pytest.fixture(scope="module")
def b2_rank3():
    return enumerate_fragment(BooleanLattice(2), 3)  # 3125 members


def tile_rows(n, where):
    """The rows of a middle row tile, or of the last, partial one."""
    last = n // ROW_TILE * ROW_TILE
    assert 0 < n - last < ROW_TILE and last >= 3 * ROW_TILE
    start = last if where == "last" else n // ROW_TILE // 2 * ROW_TILE
    return range(start, min(start + ROW_TILE, n))


def tables_copy(tables):
    return TruthTables(tables.atoms, tables.top, tables.fwd.copy(),
                       tables.mem.copy(), tables.eq.copy())


def whole_plane_witness(tables, atom, kind):
    """The substitutivity witness of one plane from whole-plane numpy scans:
    rows compared in (u, w) order, columns in (w, u) order."""
    eq_plane, mem_plane = plane(tables.eq, atom), plane(tables.mem, atom)
    labels = np.argmax(eq_plane, axis=1)
    if kind == "membership-left":
        u, w = np.argwhere(mem_plane != mem_plane[labels])[0]
        member = mem_plane[u, w]
    else:
        w, u = np.argwhere(mem_plane != mem_plane[:, labels])[0]
        member = mem_plane[w, u]
    v = labels[u]
    if not member:
        u, v = v, u
    return (kind, int(u), int(v), int(w))


@pytest.mark.parametrize("where", ["middle", "last"])
def test_membership_left_witness_past_first_tile(b2_rank3, where):
    # flip one bit of a non-representative row: only that row now differs
    # from its class label's row on plane 1 (plane 0 still passes)
    tables = tables_copy(b2_rank3.truth_tables())
    labels = tables.eq_labels()[1]
    u = next(x for x in tile_rows(len(b2_rank3), where) if labels[x] != x)
    tables.mem[u, 7] ^= 2
    expected = whole_plane_witness(tables, 1, "membership-left")
    assert u in expected[1:3]
    assert check_substitutivity_everywhere(tables) == expected


@pytest.mark.parametrize("where", ["middle", "last"])
def test_membership_right_witness_past_first_tile(b2_rank3, where):
    # every class representative sits in the first tile, so make x a class
    # of its own on plane 1 (EQ stays an equivalence, MEM rows stay constant
    # on classes), then flip [[x in u]] for a non-representative u: column u
    # differs from its class label's column in row x only
    tables = tables_copy(b2_rank3.truth_tables())
    rows = tile_rows(len(b2_rank3), where)
    x = rows[len(rows) // 2]
    tables.eq[x, :] &= ~np.uint8(2)
    tables.eq[:, x] &= ~np.uint8(2)
    tables.eq[x, x] |= 2
    labels = equivalence_labels(tables.eq, 1)
    assert labels is not None and labels[x] == x
    u = next(y for y in range(len(b2_rank3)) if labels[y] != y)
    tables.mem[x, u] ^= 2
    expected = whole_plane_witness(tables, 1, "membership-right")
    assert expected[3] == x
    assert check_substitutivity_everywhere(tables) == expected


@pytest.mark.parametrize("where", ["middle", "last"])
def test_transitivity_witness_with_many_related_rows(b2_rank3, where):
    # relate one set to the last member of another class on plane 0: the
    # classes have up to 1,568 members, so the related rows span several
    # tiles, and the row that breaks transitivity is past the first one
    labels = b2_rank3.truth_tables().eq_labels()[0]
    tables = tables_copy(b2_rank3.truth_tables())
    x = tile_rows(len(b2_rank3), where)[0]
    y = max(y for y in range(len(b2_rank3)) if labels[y] != labels[x])
    tables.eq[x, y] |= 1
    tables.eq[y, x] |= 1
    eq_plane = plane(tables.eq, 0)
    # the search a whole plane allows: each u's related rows at once
    expected = None
    for u in range(len(eq_plane)):
        related = eq_plane[u].astype(bool)
        gaps = eq_plane[related].astype(bool).any(axis=0) & ~related
        if gaps.any():
            w = int(np.argmax(gaps))
            v = int(np.nonzero(related & eq_plane[:, w].astype(bool))[0][0])
            expected = (u, v, w)
            break
    assert expected is not None
    u, v, _ = expected
    assert list(np.flatnonzero(eq_plane[u])).index(v) >= ROW_TILE
    assert find_transitivity_counterexample(tables.eq, 0) == expected
    assert check_substitutivity_everywhere(tables) == ("transitivity", *expected)
