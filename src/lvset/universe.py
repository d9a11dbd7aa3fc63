"""Finite-rank fragments of the lattice-valued universe V^(L).

A QSet is a finite map from previously built QSets to lattice truth values.
Membership and equality truth values are computed by the mutual recursion

    [[u ∈ v]] = ⋁_{x ∈ dom(v)} v(x) ∧ [[x = u]]
    [[u = v]] = ⋀_{x ∈ dom(u)} (u(x) → [[x ∈ v]]) ∧ ⋀_{y ∈ dom(v)} (v(y) → [[y ∈ u]])

with the Sasaki arrow as →, which is classical implication when the lattice
is Boolean. Recursion terminates because every domain element has strictly
smaller rank.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional

from .lattice import BooleanLattice, Lattice, LatticeError

DEFAULT_FRAGMENT_LIMIT = 5000
DEFAULT_EMBED_DEPTH = 32


class QSet:
    """One node of V^(L): identity is by handle, never structural.

    Two make_qset calls with equal entries yield distinct QSets; fragments
    deduplicate structurally at enumeration time only. This keeps
    memoization keys stable.
    """

    __slots__ = ("lattice", "rank", "entries", "_skey")

    def __init__(self, lattice: Lattice, entries: tuple):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "entries", entries)
        rank = 1 + max((k.rank for k, _ in entries), default=0)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_skey", None)

    def __setattr__(self, name, value):
        raise AttributeError("QSet is immutable")

    def domain(self) -> tuple:
        return tuple(k for k, _ in self.entries)

    def is_empty(self) -> bool:
        return not self.entries

    def structural_key(self):
        """Extensional fingerprint used for dedup and stable JSON export.
        Keys are filled bottom-up from an explicit stack, so deep sets need
        no recursion."""
        stack = [self]
        while stack:
            u = stack[-1]
            if u._skey is not None:
                stack.pop()
                continue
            pending = [k for k, _ in u.entries if k._skey is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            object.__setattr__(u, "_skey", frozenset((k._skey, v) for k, v in u.entries))
        return self._skey

    def __repr__(self):
        return f"QSet(rank={self.rank}, entries={len(self.entries)})"


def make_qset(lattice: Lattice, entries) -> QSet:
    """Build a QSet from a mapping or iterable of (QSet, value) pairs.

    A QSet is a function on its keys, so a key handle may appear once;
    distinct handles with equal structure are distinct keys."""
    if isinstance(entries, Mapping):
        pairs = tuple(entries.items())
    else:
        pairs = tuple(entries)
    seen: set = set()
    for k, v in pairs:
        if not isinstance(k, QSet):
            raise LatticeError(f"QSet keys must be QSets, got {type(k).__name__}")
        if k.lattice != lattice:
            raise LatticeError("key belongs to a different lattice")
        if k in seen:
            raise LatticeError("a key appears twice; a set has one value per key")
        seen.add(k)
        lattice.check_element(v)
    return QSet(lattice, pairs)


def empty_qset(lattice: Lattice) -> QSet:
    return make_qset(lattice, ())


def check_embed(a, lattice: Lattice) -> QSet:
    """The check-set ǎ of a hereditarily finite set given as nested lists.

    Every member gets truth value 1; structural duplicates share one handle,
    so repeated members are ignored.
    """
    top = lattice.top()
    cache: dict = {}

    def build(x, depth: int) -> QSet:
        if depth > DEFAULT_EMBED_DEPTH:
            raise LatticeError(
                f"nesting depth exceeds the configured maximum {DEFAULT_EMBED_DEPTH}")
        if not isinstance(x, (list, tuple, set, frozenset)):
            raise LatticeError(f"standard sets must be nested lists/tuples/sets, got {type(x).__name__}")
        members = [build(m, depth + 1) for m in x]
        unique = []
        seen = set()
        for m in members:
            sk = m.structural_key()
            if sk not in seen:
                seen.add(sk)
                unique.append(m)
        key = frozenset(m.structural_key() for m in unique)
        if key not in cache:
            cache[key] = make_qset(lattice, [(m, top) for m in unique])
        return cache[key]

    return build(a, 0)


def numerals(lattice: Lattice, n: int) -> list:
    """Check-sets of the von Neumann numerals 0..n-1; each numeral's members
    are the earlier numerals, at value 1."""
    top = lattice.top()
    out: list = []
    for _ in range(n):
        out.append(make_qset(lattice, tuple((m, top) for m in out)))
    return out


class EvalSession:
    """Memoized truth-value computation over one lattice.

    Caches are keyed by QSet handles; sessions are cheap, so use one per
    logical evaluation run rather than sharing across threads.
    """

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        self._membership: dict = {}
        self._equality: dict = {}
        # closures compiled against this session (formula.compile_core), by
        # what they evaluate. They hold the session's methods, so they live
        # and die with it; a table outside it, even with weak keys, would
        # keep every session alive.
        self.programs: dict = {}

    def _check(self, u: QSet, v: QSet):
        if u.lattice != self.lattice or v.lattice != self.lattice:
            raise LatticeError("QSet belongs to a different lattice than this session")

    def truth_membership(self, u: QSet, v: QSet):
        """[[u ∈ v]] = ⋁_{x ∈ dom(v)} v(x) ∧ [[x = u]]."""
        self._check(u, v)
        return self._membership_value(u, v)

    def truth_equality(self, u: QSet, v: QSet):
        """[[u = v]] = ⋀_{x∈dom(u)} (u(x) → [[x∈v]]) ∧ ⋀_{y∈dom(v)} (v(y) → [[y∈u]])."""
        self._check(u, v)
        return self._equality_value(u, v)

    # The recursion stays below the checked entry points: every member of a
    # domain belongs to its container's lattice.

    def _membership_value(self, u: QSet, v: QSet):
        key = (u, v)
        hit = self._membership.get(key)
        if hit is not None:
            return hit
        lat = self.lattice
        out = lat.big_join(
            lat.meet(value, self._equality_value(x, u))
            for x, value in v.entries
        )
        self._membership[key] = out
        return out

    def _equality_value(self, u: QSet, v: QSet):
        key = (u, v)
        hit = self._equality.get(key)
        if hit is not None:
            return hit
        lat = self.lattice
        forward = lat.big_meet(
            lat.sasaki_arrow(value, self._membership_value(x, v))
            for x, value in u.entries
        )
        backward = lat.big_meet(
            lat.sasaki_arrow(value, self._membership_value(y, u))
            for y, value in v.entries
        )
        out = lat.meet(forward, backward)
        self._equality[key] = out
        return out

    def cache_sizes(self) -> tuple:
        return len(self._membership), len(self._equality)


def truth_membership(u: QSet, v: QSet, session: Optional[EvalSession] = None):
    session = session or EvalSession(u.lattice)
    return session.truth_membership(u, v)


def truth_equality(u: QSet, v: QSet, session: Optional[EvalSession] = None):
    session = session or EvalSession(u.lattice)
    return session.truth_equality(u, v)


class UniverseFragment:
    """A finite, dom-closed collection of QSets over one lattice.

    Members are ordered by construction stage, so every key of a member
    appears earlier in the list than the member itself.
    """

    def __init__(self, lattice: Lattice, members: list):
        self.lattice = lattice
        self.members = list(members)
        self.position = {m: i for i, m in enumerate(self.members)}
        self.validate()
        self._tables = None
        self._substitutivity = None  # (result,) once computed; the result may be None

    def truth_tables(self):
        """The Boolean truth tables of this fragment, built on first use.
        Every caller shares them, so their arrays are read-only."""
        if self._tables is None:
            from . import fragment_tables
            tables = fragment_tables.boolean_truth_tables(self)
            for table in (tables.fwd, tables.mem, tables.eq):
                table.flags.writeable = False
            self._tables = tables
        return self._tables

    def substitutivity_failure(self):
        """fragment_tables.check_substitutivity_everywhere on this
        fragment's truth tables, computed on first use and then shared."""
        if self._substitutivity is None:
            from . import fragment_tables
            self._substitutivity = (
                fragment_tables.check_substitutivity_everywhere(self.truth_tables()),)
        return self._substitutivity[0]

    def validate(self):
        for m in self.members:
            if m.lattice != self.lattice:
                raise LatticeError("fragment member belongs to a different lattice")
            for k, _ in m.entries:
                i = self.position.get(k)
                if i is None:
                    raise LatticeError("fragment is not closed under domains")
                if i >= self.position[m]:
                    raise LatticeError("fragment member order is not well-founded")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def by_rank(self, rank: int) -> list:
        return [m for m in self.members if m.rank == rank]

    def max_rank(self) -> int:
        return max((m.rank for m in self.members), default=0)


def predicted_fragment_size(n_values: int, max_rank: int,
                            cap: Optional[int] = None) -> int:
    """|V_α| when every domain may take any of n_values truth values:
    |V_1| = 1 and |V_{α+1}| = (1 + n_values)^|V_α|.

    With a cap, stops growing the tower once it passes the cap and returns
    the current stage (a lower bound for the true size); without one the
    exact value is computed, which is only sensible for small ranks."""
    count = 0
    for _ in range(max_rank):
        if cap is not None and count > cap:
            return count
        count = (1 + n_values) ** count
    return count


def enumerate_fragment(lattice: Lattice, max_rank: int, values=None,
                       limit: int = DEFAULT_FRAGMENT_LIMIT) -> UniverseFragment:
    """All QSets of rank <= max_rank over the given truth values.

    Boolean lattices default to their full element list; projection lattices
    need an explicit finite value list (the lattice itself is infinite).
    Refuses with the computed cardinality when the fragment would exceed
    `limit` members.
    """
    if max_rank < 1:
        raise LatticeError("max_rank must be at least 1")
    if values is None:
        if isinstance(lattice, BooleanLattice):
            values = list(lattice.elements())
        else:
            raise LatticeError("projection-lattice fragments need an explicit value list")
    else:
        values = list(values)
        deduped = []
        for v in values:
            lattice.check_element(v)
            if v not in deduped:
                deduped.append(v)
        values = deduped
    if not values:
        raise LatticeError("value list must be nonempty")

    predicted = predicted_fragment_size(len(values), max_rank, cap=limit)
    if predicted > limit:
        raise LatticeError(
            f"fragment of rank {max_rank} over {len(values)} values has "
            f"at least {predicted} members, exceeding the limit {limit}"
        )

    members: list = [empty_qset(lattice)]
    seen = {members[0].structural_key()}
    stage = list(members)
    for _ in range(max_rank - 1):
        next_stage = []
        # Subsets in binary-counter order, assignments in value-list order:
        # deterministic member ordering for stable tables and JSON.
        for size in range(1, len(stage) + 1):
            for domain in itertools.combinations(stage, size):
                for assignment in itertools.product(values, repeat=size):
                    q = make_qset(lattice, tuple(zip(domain, assignment)))
                    sk = q.structural_key()
                    if sk not in seen:
                        seen.add(sk)
                        next_stage.append(q)
        members.extend(next_stage)
        stage = list(members)
    return UniverseFragment(lattice, members)


def qsets_to_json(roots: Iterable[QSet], lattice: Lattice) -> dict:
    """Node-table export: shared sub-QSets are emitted once and referenced
    by index; every key index points strictly earlier in the table."""
    index: dict = {}
    nodes: list = []
    root_ids: list = []
    for root in roots:
        # depth-first post-order from an explicit stack: a node is emitted
        # once its keys are, first key first, so deep sets need no recursion
        stack = [root]
        while stack:
            u = stack[-1]
            if u in index:
                stack.pop()
                continue
            pending = [k for k, _ in u.entries if k not in index]
            if pending:
                stack.extend(reversed(pending))
                continue
            stack.pop()
            nodes.append({"entries": [[index[k], lattice.element_to_json(v)]
                                      for k, v in u.entries]})
            index[u] = len(nodes) - 1
        root_ids.append(index[root])
    return {"lattice": lattice.describe(), "nodes": nodes, "roots": root_ids}


def qsets_from_json(doc: dict, lattice: Optional[Lattice] = None) -> tuple:
    """Inverse of qsets_to_json; returns (lattice, [root QSets])."""
    from .lattice import lattice_from_json

    if lattice is None:
        lattice = lattice_from_json(doc["lattice"])
    built: list = []
    for node in doc["nodes"]:
        entries = []
        for key_id, value_doc in node["entries"]:
            if not 0 <= key_id < len(built):
                raise LatticeError("node table is not topologically ordered")
            entries.append((built[key_id], lattice.element_from_json(value_doc)))
        built.append(make_qset(lattice, entries))
    roots = [built[i] for i in doc["roots"]]
    return lattice, roots


def fragment_to_json(fragment: UniverseFragment) -> dict:
    doc = qsets_to_json(fragment.members, fragment.lattice)
    doc["roots"] = list(range(len(fragment.members)))
    return doc


def fragment_from_json(doc: dict) -> UniverseFragment:
    lattice, roots = qsets_from_json(doc)
    return UniverseFragment(lattice, roots)
