"""The four benchmark workloads.

Each workload has the same five steps:

* `build(seed)` makes fresh inputs from the seed, through lvset's own
  constructors and generators (set-up, or untimed before a repetition);
* `run(inputs)` makes the timed calls into lvset's public entry functions
  and returns one output per operation;
* `observe(inputs, outputs)` makes the extra, untimed lvset calls that the
  checks need;
* `judge(inputs, outputs, observed)` holds the checks. It calls no lvset
  code that computes a truth value: the oracles are numpy in floating
  point, classical set interning and exact identities. It returns, per
  operation, the names of the checks that failed;
* `summary(outputs)` gives a JSON form of the outputs, so a later
  repetition can be compared with the first, fully checked one.

lvset functions are looked up through their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9


def _lv(name):
    import importlib
    return importlib.import_module(f"lvset.{name}")


# ------------------------------------------------------------ float oracles

def to_np(p) -> np.ndarray:
    """The exact matrix of a Projection as a complex numpy array."""
    return np.array([[complex(x) for x in row] for row in p.matrix], dtype=complex)


def float_rank(m: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(m, tol=FLOAT_TOL))


def float_span_projection(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the column space, by SVD."""
    u, s, _ = np.linalg.svd(columns)
    basis = u[:, : int((s > FLOAT_TOL).sum())]
    return basis @ basis.conj().T


def float_join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return float_span_projection(np.hstack([a, b]))


def float_meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    eye = np.eye(len(a))
    return eye - float_join(eye - a, eye - b)


def is_float_identity(m: np.ndarray) -> bool:
    return bool(np.abs(m - np.eye(len(m))).max() < FLOAT_TOL)


def float_born(p: np.ndarray, psi: np.ndarray) -> float:
    image = p @ psi
    return float(np.vdot(image, image).real / np.vdot(psi, psi).real)


def float_commute(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.abs(a @ b - b @ a).max() < FLOAT_TOL)


def modular_law_holds(p, q, meet, join) -> bool:
    """rank(P∧Q) + rank(P∨Q) = rank P + rank Q, ranks taken in floating point."""
    return (float_rank(to_np(meet)) + float_rank(to_np(join))
            == float_rank(to_np(p)) + float_rank(to_np(q)))


def meet_join_match_float(p, q, meet, join) -> bool:
    """P∧Q and P∨Q equal the meet and join computed in floating point (SVD)."""
    a, b = to_np(p), to_np(q)
    return bool(np.abs(to_np(meet) - float_meet(a, b)).max() < FLOAT_TOL
                and np.abs(to_np(join) - float_join(a, b)).max() < FLOAT_TOL)


def witness_breaks_distributivity(a, b, c) -> bool:
    """a∧(b∨c) ≠ (a∧b)∨(a∧c), recomputed in floating point."""
    a, b, c = to_np(a), to_np(b), to_np(c)
    lhs = float_meet(a, float_join(b, c))
    rhs = float_join(float_meet(a, b), float_meet(a, c))
    return bool(np.abs(lhs - rhs).max() > 1e-6)


# ------------------------------------------------------------ projection-laws

class ProjectionLaws:
    """verify_laws on seeded random projections in dimensions 2, 3 and 4.

    The sample of each dimension is bottom, top and `counts[dim]` random
    projections with ranks cycling through 1..dim-1, so every seed gives
    the same mix of ranks and nearly every meet and join is a full exact
    row reduction.
    """

    name = "projection-laws"

    def __init__(self, counts=None, max_triples: int = 60):
        self.counts = counts or {2: 6, 3: 5, 4: 4}
        self.max_triples = max_triples

    def build(self, seed: int):
        gen = _lv("generators")
        lattice = _lv("lattice")
        rng = random.Random(f"{self.name}:{seed}")
        inputs = []
        for dim, count in self.counts.items():
            lat = lattice.ProjectionLattice(dim)
            sample = [lat.bottom(), lat.top()]
            sample += [gen.random_projection(rng, dim, rank=1 + i % (dim - 1))
                       for i in range(count)]
            inputs.append((lat, sample))
        return inputs

    def run(self, inputs):
        lattice = _lv("lattice")
        return [lattice.verify_laws(lat, sample=sample, max_triples=self.max_triples)
                for lat, sample in inputs]

    def observe(self, inputs, outputs):
        return [[(x, y, lat.meet(x, y), lat.join(x, y)) for x in sample for y in sample]
                for lat, sample in inputs]

    def judge(self, inputs, outputs, observed):
        failures = []
        for (lat, sample), report, pairs in zip(inputs, outputs, observed):
            bad = set()
            if not (report.ortholattice_ok() and report.orthomodular):
                bad.add("laws")
            if report.distributive or report.distributivity_witness is None:
                bad.add("non-distributive")
            elif not witness_breaks_distributivity(*report.distributivity_witness):
                bad.add("witness-float")
            if report.pairs_checked != len(sample) ** 2:
                bad.add("pairs")
            if not all(modular_law_holds(*pair) for pair in pairs):
                bad.add("modular-law")
            if not all(meet_join_match_float(*pair) for pair in pairs):
                bad.add("meet-join-float")
            failures.append(bad)
        return failures

    def summary(self, inputs, outputs):
        return [report.to_json(lat) for (lat, _), report in zip(inputs, outputs)]


# -------------------------------------------------------------- transfer-pool

# Arity of every theorem schema in lvset's catalog, written out so that the
# instance-count checks do not read it from the program. A sweep over a
# pool or fragment of n members covers n**arity instances.
SCHEMA_ARITY = {
    "eq-reflexivity": 1, "eq-symmetry": 2, "eq-transitivity": 3,
    "extensionality": 2, "and-weakening": 3, "empty-set": 0, "pairing": 2,
    "subst-membership-left": 3, "subst-membership-right": 3,
}


def dim2_lines():
    """p, q and r: the projections onto e1, e1+e2 and e1+i·e2."""
    xn = _lv("exactnum")
    pj = _lv("projections")
    one, zero, i = xn.gq(1), xn.gq(0), xn.GQ(Fraction(0), Fraction(1))
    return [pj.proj_from_span([v], 2) for v in ((one, zero), (one, one), (one, i))]


def hereditary_family(args) -> set:
    """Every truth value found down the domain trees of the arguments."""
    values, stack, seen = set(), list(args), set()
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            for key, value in u.entries:
                values.add(value)
                stack.append(key)
    return values


class TransferPool:
    """transfer_suite and the equality-axiom search over dimension-2 pools.

    Pool shapes are fixed: pool i comes from `random_qset_pool` driven by
    the generator seeded "transfer-pool-shape:i". The value list is 0, 1,
    then p, q and r each next to its complement, and the seed decides the
    order within each of those three pairs. Swapping a line with its
    complement is a symmetry of the three lines that keeps the arithmetic
    (p⊥ is as sparse as p, r⊥ as complex as r), so different seeds give
    different sets with the same amount of work. With random shapes, one
    pool of five cost from 0.3 s to 2.0 s depending on its seed; shuffling
    the lines themselves made some seeds slower (4.4–4.8 s against a median
    of 4.0 s in one set of runs), since only r has complex entries and only
    p is sparse.
    """

    name = "transfer-pool"

    def __init__(self, pools: int = 4, size: int = 5):
        self.pools = pools
        self.size = size

    def build(self, seed: int):
        gen = _lv("generators")
        lattice = _lv("lattice")
        vf = _lv("verification")
        rng = random.Random(f"{self.name}:{seed}")
        lat = lattice.ProjectionLattice(2)
        p, q, r = dim2_lines()
        values = [lat.bottom(), lat.top()]
        for line in (p, q, r):
            pair = [line, lat.ortho(line)]
            rng.shuffle(pair)
            values += pair
        pools = [gen.random_qset_pool(random.Random(f"{self.name}-shape:{i}"),
                                      lat, values, self.size)
                 for i in range(self.pools)]
        return lat, pools, vf.violation_demo_collection(lat, p, q)

    def run(self, inputs):
        vf = _lv("verification")
        lat, pools, demo = inputs
        outputs = []
        for pool in pools:
            outputs.append(vf.transfer_suite(pool, lat))
            outputs.append(vf.find_equality_axiom_violation(pool))
        outputs.append(vf.find_equality_axiom_violation(demo))
        return outputs

    def observe(self, inputs, outputs):
        universe = _lv("universe")
        pj = _lv("projections")
        lat, pools, _ = inputs
        observed = {"pools": [], "demo_genuine": _recompute_witness(outputs[-1])}
        for k, pool in enumerate(pools):
            session = universe.EvalSession(lat)
            pairs = set()
            for arity in set(SCHEMA_ARITY.values()):
                for args in itertools.product(pool, repeat=arity):
                    family = hereditary_family(args)
                    if len(family) == 2:
                        pairs.add(frozenset(family))
            commutators = []
            for pair in pairs:
                a, b = sorted(pair, key=_matrix_key)
                commutators.append((pj.lattice_commutator([a, b]),
                                    pj.commutator_pair_closed_form(a, b)))
            observed["pools"].append({
                "reflexive": [session.truth_equality(u, u) for u in pool],
                "commutators": commutators,
                "witness_genuine": _recompute_witness(outputs[2 * k + 1]),
            })
        return observed

    def judge(self, inputs, outputs, observed):
        _, pools, _ = inputs
        failures = []
        for k, pool in enumerate(pools):
            suite, seen = outputs[2 * k], observed["pools"][k]
            bad = set()
            if not suite.passed():
                bad.add("suite-passed")
            counts = {s.schema: s.instances for s in suite.sweeps}
            if counts != {name: len(pool) ** arity for name, arity in SCHEMA_ARITY.items()}:
                bad.add("instances")
            if not all(is_float_identity(to_np(v)) for v in seen["reflexive"]):
                bad.add("reflexivity")
            if not all(word == closed for word, closed in seen["commutators"]):
                bad.add("pair-commutator")
            failures.append(bad)
            witness_ok = outputs[2 * k + 1] is None or seen["witness_genuine"]
            failures.append(set() if witness_ok else {"witness-genuine"})
        failures.append(set() if observed["demo_genuine"] else {"demo-witness"})
        return failures

    def summary(self, inputs, outputs):
        return [None if item is None else item.to_json() for item in outputs]


def _matrix_key(p):
    return repr(p.matrix)


def _recompute_witness(w) -> bool:
    """The witness is a real substitutivity failure: with values recomputed
    in a fresh session, [[u=v]] ∧ [[phi(u)]] is not below [[phi(v)]]."""
    if w is None:
        return False
    universe = _lv("universe")
    lat = w.lattice
    session = universe.EvalSession(lat)
    equality = session.truth_equality(w.u, w.v)
    if w.kind == "membership-left":
        phi_u = session.truth_membership(w.u, w.w)
        phi_v = session.truth_membership(w.v, w.w)
    else:
        phi_u = session.truth_membership(w.w, w.u)
        phi_v = session.truth_membership(w.w, w.v)
    lhs = to_np(lat.meet(equality, phi_u))
    right = to_np(phi_v)
    # lhs ≤ phi_v exactly when phi_v fixes the range of lhs
    return bool(np.abs(right @ lhs - lhs).max() > FLOAT_TOL)


# ----------------------------------------------------------- boolean-fragment

def collapse_tables(fragment, atom: int):
    """Classical oracle for one atom plane: map every member u to the
    hereditarily finite set {π(x) : bit atom of u(x) is set}, interned.
    Returns (eq, mem) as boolean matrices: π(u) = π(v) and π(x) ∈ π(v)."""
    ids: list = []
    interned: dict = {}
    position = {m: i for i, m in enumerate(fragment.members)}
    for u in fragment.members:
        key = frozenset(ids[position[x]] for x, value in u.entries if value >> atom & 1)
        ids.append(interned.setdefault(key, len(interned)))
    classes = list(interned)  # class id -> its frozenset of member class ids
    contains = np.zeros((len(classes), len(classes)), dtype=bool)
    for cid, members in enumerate(classes):
        contains[list(members), cid] = True
    idx = np.asarray(ids)
    return idx[:, None] == idx[None, :], contains[idx[:, None], idx[None, :]]


def tables_match_collapse(fragment, tables) -> tuple:
    """(eq planes match, mem planes match) against the per-atom oracle."""
    eq_ok = mem_ok = True
    for atom in range(tables.atoms):
        eq, mem = collapse_tables(fragment, atom)
        eq_ok &= bool(np.array_equal((tables.eq >> atom) & 1, eq.astype(np.uint8)))
        mem_ok &= bool(np.array_equal((tables.mem >> atom) & 1, mem.astype(np.uint8)))
    return eq_ok, mem_ok


class BooleanFragment:
    """scott_solovay_suite and the equality-axiom search over the full
    rank-3 fragment of the 4-element Boolean algebra (3 125 members).

    The fragment does not depend on the seed; the seed drives the suite's
    sampled evaluator cross-check.
    """

    name = "boolean-fragment"

    def __init__(self, atoms: int = 2, rank: int = 3, cross_check: int = 180):
        self.atoms = atoms
        self.rank = rank
        self.cross_check = cross_check

    def build(self, seed: int):
        lattice = _lv("lattice")
        universe = _lv("universe")
        lat = lattice.BooleanLattice(self.atoms)
        return universe.enumerate_fragment(lat, self.rank), seed

    def run(self, inputs):
        vf = _lv("verification")
        fragment, seed = inputs
        rng = random.Random(f"{self.name}:{seed}")
        return [vf.scott_solovay_suite(fragment, cross_check=self.cross_check, rng=rng),
                vf.find_equality_axiom_violation(fragment)]

    def observe(self, inputs, outputs):
        ft = _lv("fragment_tables")
        return ft.boolean_truth_tables(inputs[0])

    def judge(self, inputs, outputs, tables):
        fragment, _ = inputs
        suite, witness = outputs
        n = len(fragment)
        bad = set()
        eq_ok, mem_ok = tables_match_collapse(fragment, tables)
        if not eq_ok:
            bad.add("collapse-eq")
        if not mem_ok:
            bad.add("collapse-mem")
        counts = {s.schema: s.instances for s in suite.sweeps}
        if any(counts.get(name) != n ** arity for name, arity in SCHEMA_ARITY.items()):
            bad.add("instances")
        control = [s for s in suite.sweeps if s.schema == "control-distinct"]
        if len(control) != 1 or not control[0].passed:
            bad.add("control")
        if not suite.passed():
            bad.add("suite-passed")
        return [bad, set() if witness is None else {"no-witness"}]

    def summary(self, inputs, outputs):
        suite, witness = outputs
        return [suite.to_json(), None if witness is None else witness.to_json()]


# --------------------------------------------------------------- quantum-reals

class QuantumReals:
    """Seeded random observables in dimensions 2–4, each with a commuting
    partner (same eigenprojections, new eigenvalues) and an independent,
    usually non-commuting partner, in a random exact state.

    `mix` fixes how many observables of each (dimension, number of
    eigenvalues) every seed gets, so the amount of lattice work does not
    depend on the seed.
    """

    name = "quantum-reals"
    EXTRA_GRID = (Fraction(-100), Fraction(1, 7))

    def __init__(self, mix=None):
        self.mix = mix or {(2, 2): 6, (3, 2): 5, (3, 3): 3, (4, 2): 4, (4, 3): 1}

    def build(self, seed: int):
        gen = _lv("generators")
        pj = _lv("projections")
        qr = _lv("qreals")
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for (dim, n_values), count in self.mix.items():
            for _ in range(count):
                sd = gen.random_spectral_data(rng, dim, n_eigenvalues=n_values)
                values: set = set()
                while len(values) < n_values:
                    values.add(Fraction(rng.randint(-9, 9)))
                commuting = pj.SpectralData(dim=dim, eigen=tuple(
                    zip(sorted(values), (p for _, p in sd.eigen))))
                independent = gen.random_spectral_data(rng, dim, n_eigenvalues=n_values)
                state = qr.StateVector(gen.random_state_vector(rng, dim))
                items.append((sd, commuting, independent, state))
        return items

    def run(self, inputs):
        qr = _lv("qreals")
        outputs = []
        for sd, commuting, independent, state in inputs:
            q = qr.qreal_from_spectral(sd, sd.eigenvalues())
            refined = q.refined(self.EXTRA_GRID)
            outputs.append({
                "qreal": q,
                "real": qr.real_predicate_truth(q),
                "refined": refined,
                "refined_eq": qr.truth_eq(q, refined),
                "born": [qr.born_probability(p, state) for _, p in sd.eigen],
                "commuting": qr.prob_equal(sd, commuting, state),
                "independent": qr.prob_equal(sd, independent, state),
            })
        return outputs

    def observe(self, inputs, outputs):
        qr = _lv("qreals")
        return [qr.classical_equal_value_probability(sd, commuting, state)
                for sd, commuting, _, state in inputs]

    def judge(self, inputs, outputs, classical):
        failures = []
        for (sd, commuting, independent, state), out, oracle in zip(inputs, outputs, classical):
            bad = set()
            q, refined = out["qreal"], out["refined"]
            if not is_float_identity(to_np(out["real"])):
                bad.add("real-predicate")
            if (not is_float_identity(to_np(out["refined_eq"]))
                    or any(refined.cut(g) != q.cut(g) for g in q.grid)):
                bad.add("refinement")
            if sum(out["born"], Fraction(0)) != 1:
                bad.add("born-sum")
            psi = np.array([complex(x) for x in state.entries])
            probes = [(p, value) for (_, p), value in zip(sd.eigen, out["born"])]
            probes += [(out[k].element, out[k].value) for k in ("commuting", "independent")]
            if any(abs(float_born(to_np(p), psi) - float(value)) > FLOAT_TOL
                   for p, value in probes):
                bad.add("born-numpy")
            if out["commuting"].model_dependent or out["commuting"].value != oracle:
                bad.add("commuting-oracle")
            noncommuting = not all(float_commute(to_np(a), to_np(b))
                                   for _, a in sd.eigen for _, b in independent.eigen)
            if out["independent"].model_dependent != noncommuting:
                bad.add("model-dependent")
            failures.append(bad)
        return failures

    def summary(self, inputs, outputs):
        pj = _lv("projections")
        out = []
        for item in outputs:
            out.append({
                "real": pj.projection_to_json(item["real"]),
                "refined_eq": pj.projection_to_json(item["refined_eq"]),
                "born": [str(b) for b in item["born"]],
                "probabilities": [(str(item[k].value), item[k].model_dependent,
                                   pj.projection_to_json(item[k].element))
                                  for k in ("commuting", "independent")],
            })
        return out


WORKLOADS = {w.name: w for w in (ProjectionLaws, TransferPool, BooleanFragment, QuantumReals)}
