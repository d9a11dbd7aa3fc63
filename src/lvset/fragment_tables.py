"""Vectorized truth tables for Boolean-lattice fragments.

A fragment over an n-atom Boolean algebra admits full pairwise tables
MEM[x, v] = [[x ∈ v]] and EQ[u, v] = [[u = v]] stored as uint8 bitmasks,
one bit per atom. Statements quantified over all pairs or triples of the
fragment then reduce to bitwise identities and per-atom-plane relation
properties, which is what makes whole-fragment theorem sweeps feasible:
the tables replace |F|³ evaluator calls with O(|F|²) vector work.

The tables are filled one (rank, rank) block at a time in rank-sum order.
With members in rank order every rank layer is a contiguous slice, and
with domains padded into (n × K) index and value arrays each block costs
O(K) numpy calls per tile of at most ROW_TILE rows, K the widest domain
in the layer. The build and the sweeps below work in such tiles too, so
FWD, MEM and EQ (3·|F|² bytes) are the only |F| × |F| arrays they make,
apart from one table at a time when the tables of a fragment whose
members are not in rank order are put back in its order.

Soundness of the plane reductions: a Boolean truth value equals 1 exactly
when its restriction to every atom plane is classically true, so
"[[phi]] = 1 for all tuples" is equivalent to a classical statement about
each 0/1 plane of the tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lattice import BooleanLattice, LatticeError
from .universe import UniverseFragment


@dataclass
class TruthTables:
    """Pairwise truth values over one fragment, as atom bitmasks."""

    atoms: int
    top: int
    fwd: np.ndarray  # fwd[u, v] = [[forall x in u . x in v]]
    mem: np.ndarray  # mem[x, v] = [[x in v]]
    eq: np.ndarray   # eq[u, v] = [[u = v]]
    _labels: Optional[list] = field(default=None, init=False, repr=False, compare=False)
    _triples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def eq_labels(self) -> list:
        """equivalence_labels of each EQ plane, atom by atom, computed on
        first use; the transitivity and substitutivity checks both read them."""
        if self._labels is None:
            self._labels = [equivalence_labels(self.eq, atom)
                            for atom in range(self.atoms)]
        return self._labels

    def transitivity_triple(self, atom: int) -> Optional[tuple]:
        """find_transitivity_counterexample on one EQ plane, searched once
        per plane and only when the plane is not an equivalence; the
        transitivity and substitutivity checks both read it."""
        if self.eq_labels()[atom] is not None:
            return None
        if atom not in self._triples:
            self._triples[atom] = find_transitivity_counterexample(self.eq, atom)
        return self._triples[atom]

    def equivalence_failure(self, atom: int) -> tuple:
        """Why EQ plane atom is not an equivalence: ("transitivity", u, v, w)
        with u~v, v~w and not u~w if such a triple exists, else
        ("reflexivity", u, u, u) for the first u not related to itself,
        else ("symmetry", u, v, v) for the first u~v without v~u in
        row-major order."""
        triple = self.transitivity_triple(atom)
        if triple is not None:
            return ("transitivity", *triple)
        diagonal = plane(np.diagonal(self.eq), atom)
        if not diagonal.all():
            u = int(np.argmin(diagonal))
            return ("reflexivity", u, u, u)
        eq = self.eq
        hit = first_nonzero(len(eq), lambda rows: plane(eq[rows], atom)
                            > plane(transposed(eq[:, rows]), atom))
        if hit is None:
            raise LatticeError(f"EQ plane {atom} is an equivalence relation")
        u, v = hit
        return ("symmetry", u, v, v)


def plane(table: np.ndarray, atom: int) -> np.ndarray:
    """The 0/1 relation of one atom plane of a bitmask table (or of a tile of it)."""
    out = table >> atom
    out &= 1
    return out


ROW_TILE = 256


def row_tiles(start: int, stop: int):
    """Consecutive slices of at most ROW_TILE rows covering start..stop."""
    for lo in range(start, stop, ROW_TILE):
        yield slice(lo, min(lo + ROW_TILE, stop))


def first_nonzero(n: int, mask_rows) -> Optional[tuple]:
    """First nonzero (row, column) in row-major order of an n-row mask that
    is never built whole: mask_rows(rows) gives the rows of one row tile.
    Tiles are scanned in order and the scan stops at the first bad one."""
    for rows in row_tiles(0, n):
        mask = mask_rows(rows)
        if mask.any():
            i, j = np.argwhere(mask)[0]
            return rows.start + int(i), int(j)
    return None


TRANSPOSE_TILE = 256


def transposed(table: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """table.T as a new array, or written into out, copied one square tile
    at a time. A whole-array transposed copy of uint8 walks one operand a
    full row per byte; tiles that fit in cache make it several times faster."""
    n, m = table.shape
    if out is None:
        out = np.empty((m, n), dtype=table.dtype)
    for i in range(0, n, TRANSPOSE_TILE):
        for j in range(0, m, TRANSPOSE_TILE):
            out[j:j + TRANSPOSE_TILE, i:i + TRANSPOSE_TILE] = \
                table[i:i + TRANSPOSE_TILE, j:j + TRANSPOSE_TILE].T
    return out


def boolean_truth_tables(fragment: UniverseFragment) -> TruthTables:
    """Compute FWD/EQ/MEM for every pair, one rank block at a time.

    The mutual recursion of membership and equality strictly decreases the
    rank sum of the pair, so filling (rank, rank) blocks in rank-sum order
    needs only already-computed entries. Members are put in rank order
    first (once, and only if the fragment is not already), so each rank
    layer is a contiguous slice. Domains are padded to the widest one in
    their layer as (n × K) index and value arrays; a padded entry has value
    0, which changes neither the AND of FWD nor the OR of MEM. Each block
    then costs O(K) numpy calls per row tile (per column tile for MEM).
    """
    lattice = fragment.lattice
    if not isinstance(lattice, BooleanLattice):
        raise LatticeError("truth tables require a Boolean-lattice fragment")
    top = lattice.top()
    n = len(fragment)
    order = sorted(range(n), key=lambda i: fragment.members[i].rank)
    members = [fragment.members[i] for i in order]
    pos = {m: i for i, m in enumerate(members)}

    layers = {}  # rank -> (slice of its members, widest domain in it)
    start = 0
    for rank, group in itertools.groupby(members, key=lambda m: m.rank):
        group = list(group)
        layers[rank] = (slice(start, start + len(group)),
                        max(len(m.entries) for m in group))
        start += len(group)
    width = max((k for _, k in layers.values()), default=0)
    dom_idx = np.zeros((n, width), dtype=np.int64)
    dom_val = np.zeros((n, width), dtype=np.uint8)
    for i, m in enumerate(members):
        for k, (x, value) in enumerate(m.entries):
            dom_idx[i, k] = pos[x]
            dom_val[i, k] = value

    fwd = np.empty((n, n), dtype=np.uint8)
    mem = np.empty((n, n), dtype=np.uint8)
    eq = np.empty((n, n), dtype=np.uint8)

    pairs_by_sum: dict = {}
    for ra in layers:
        for rb in layers:
            pairs_by_sum.setdefault(ra + rb, []).append((ra, rb))

    for s in sorted(pairs_by_sum):
        blocks = pairs_by_sum[s]
        # forward inclusion first: depends on mem entries of smaller rank sum
        for ra, rb in blocks:
            (block_rows, k_rows), (cols, _) = layers[ra], layers[rb]
            for rows in row_tiles(block_rows.start, block_rows.stop):
                acc = fwd[rows, cols]
                acc.fill(top)
                for k in range(k_rows):
                    term = mem[dom_idx[rows, k], cols]
                    term |= (top ^ dom_val[rows, k])[:, None]
                    acc &= term
        # equality: both forward directions of this same rank sum
        for ra, rb in blocks:
            rows, cols = layers[ra][0], layers[rb][0]
            block = transposed(fwd[cols, rows], out=eq[rows, cols])
            block &= fwd[rows, cols]
        # membership: depends on equality entries of smaller rank sum. EQ is
        # symmetric, so each column tile of the block is built transposed
        # from rows of EQ.
        for ra, rb in blocks:
            (rows, _), (block_cols, k_cols) = layers[ra], layers[rb]
            for cols in row_tiles(block_cols.start, block_cols.stop):
                acc = np.zeros((cols.stop - cols.start, rows.stop - rows.start), dtype=np.uint8)
                for k in range(k_cols):
                    term = eq[dom_idx[cols, k], rows]
                    term &= dom_val[cols, k][:, None]
                    acc |= term
                transposed(acc, out=mem[rows, cols])

    if order != list(range(n)):
        inverse = np.argsort(order)
        back = np.ix_(inverse, inverse)
        fwd = fwd[back]  # one table at a time, each old one freed at once
        mem = mem[back]
        eq = eq[back]
    return TruthTables(atoms=lattice.atoms, top=top, fwd=fwd, mem=mem, eq=eq)


def equivalence_labels(table: np.ndarray, atom: int = 0) -> Optional[np.ndarray]:
    """Class labels if the reflexive symmetric relation on one atom plane of
    the table is transitive, else None. label[u] = least related index; the
    relation is an equivalence exactly when it equals the label-agreement
    relation. The plane is cut one row tile at a time, once for the labels
    and once to compare."""
    n = len(table)
    labels = np.empty(n, dtype=np.intp)
    for rows in row_tiles(0, n):
        labels[rows] = np.argmax(plane(table[rows], atom), axis=1)
    for rows in row_tiles(0, n):
        differs = labels[rows, None] == labels[None, :]
        np.not_equal(plane(table[rows], atom), differs, out=differs)
        if differs.any():
            return None
    return labels


def find_transitivity_counterexample(table: np.ndarray, atom: int = 0) -> Optional[tuple]:
    """A triple (u, v, w) with u~v and v~w but not u~w on one atom plane of
    the table, if one exists; callers search once equivalence_labels came
    back None. The rows related to u are read one tile at a time."""
    for u in range(len(table)):
        related = plane(table[u], atom).astype(bool)
        # any v ~ u whose row covers something u's row misses
        reach = np.zeros_like(related)
        vs = np.flatnonzero(related)
        for chunk in row_tiles(0, len(vs)):
            reach |= plane(table[vs[chunk]], atom).any(axis=0)
        gaps = reach & ~related
        if gaps.any():
            w = int(np.argmax(gaps))
            via = np.nonzero(related & plane(table[:, w], atom).astype(bool))[0]
            return (u, int(via[0]), w)
    return None


def check_transitivity_everywhere(tables: TruthTables) -> Optional[tuple]:
    """None if [[u=v & v=w -> u=w]] = 1 for all |F|³ triples, else a triple
    index witness. Per-plane equivalence is exactly this statement."""
    for atom in range(tables.atoms):
        triple = tables.transitivity_triple(atom)
        if triple is not None:
            return triple
    return None


def check_substitutivity_everywhere(tables: TruthTables) -> Optional[tuple]:
    """None if equal sets are everywhere intersubstitutable in membership:
    [[u=v & u in w -> v in w]] = 1 and [[u=v & w in u -> w in v]] = 1 over
    all triples. Reduces to membership rows/columns being constant on the
    equality classes of every plane. Returns (kind, u, v, w) on failure;
    on a plane that is not an equivalence, kind is "transitivity",
    "reflexivity" or "symmetry" (TruthTables.equivalence_failure).

    Each plane is scanned one row tile at a time: membership-left compares
    rows with their class label's row in (u, w) order, membership-right
    compares columns with their class label's column in (w, u) order,
    through one column take per tile."""
    mem, n = tables.mem, len(tables.mem)
    for atom, labels in enumerate(tables.eq_labels()):
        if labels is None:
            return tables.equivalence_failure(atom)
        hit = first_nonzero(n, lambda rows: plane(mem[rows], atom)
                            != plane(mem[labels[rows]], atom))
        if hit is not None:
            u, w = hit
            v = int(labels[u])
            if not plane(mem[u, w], atom):  # orient so the first set is the member
                u, v = v, u
            return ("membership-left", u, v, w)

        def column_differs(rows):
            tile = plane(mem[rows], atom)  # tile[w, u] = [[w in u]] on this plane
            return tile != np.take(tile, labels, axis=1)

        hit = first_nonzero(n, column_differs)
        if hit is not None:
            w, u = hit
            v = int(labels[u])
            if not plane(mem[w, u], atom):
                u, v = v, u
            return ("membership-right", u, v, w)
    return None
