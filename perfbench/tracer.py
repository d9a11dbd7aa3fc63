"""Span tracing for one benchmark repetition.

`Tracer.install()` replaces every public function and method of the lvset
layers by a wrapper that records a span (name, start, end, parent). It
patches module attributes, class attributes and the names other lvset
modules bound with `from ... import`, so calls that cross modules inside
the program are caught too. `exactnum` is counted, not spanned: it makes
millions of calls per repetition. `uninstall()` restores the originals.

Spans stay in memory; `write_spans` writes them out once the run is done,
and `layer_metrics` turns them into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# Layers in stack order, bottom first. `cli` is not measured.
SPANNED_LAYERS = ("exactmat", "projections", "lattice", "universe", "formula",
                  "fragment_tables", "verification", "qreals", "generators")

# Constructors worth a span: validations, sessions and quantum reals.
TRACED_INITS = {"Projection", "EvalSession", "QReal"}

# Public row-reduction entry points; nested calls among them count once.
RREF_ENTRIES = {"exactmat.rref", "exactmat.rank", "exactmat.kernel_basis",
                "exactmat.solve", "exactmat.inverse"}

LATTICE_CLASSES = ("BooleanLattice", "ProjectionLattice", "Lattice")

# Projection-lattice operations whose operands are tracked for repeats.
REPEAT_OPS = ("meet", "join", "ortho", "leq")

# (metric, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("exactnum.mul_calls", "count", "lower"),
    ("exactnum.div_calls", "count", "lower"),
    ("exactmat.mat_mul_calls", "count", "lower"),
    ("exactmat.rref_calls", "count", "lower"),
    ("exactmat.span_add_calls", "count", "lower"),
    ("exactmat.self_s", "s", "lower"),
    ("projections.construct_calls", "count", "lower"),
    ("projections.span_calls", "count", "lower"),
    ("projections.meet_calls", "count", "lower"),
    ("projections.join_calls", "count", "lower"),
    ("projections.complement_calls", "count", "lower"),
    ("projections.self_s", "s", "lower"),
    ("projections.commutator_calls", "count", "lower"),
    ("projections.commutator_s", "s", "lower"),
    ("lattice.meet_calls", "count", "lower"),
    ("lattice.join_calls", "count", "lower"),
    ("lattice.ortho_calls", "count", "lower"),
    ("lattice.leq_calls", "count", "lower"),
    ("lattice.self_s", "s", "lower"),
    ("lattice.repeat_ratio", "ratio", "lower"),
    ("lattice.repeat_base", "count", "lower"),
    ("lattice.trivial_ratio", "ratio", "higher"),
    ("lattice.trivial_base", "count", "lower"),
    ("lattice.commutes_calls", "count", "lower"),
    ("universe.truth_calls", "count", "lower"),
    ("universe.memo_hit_ratio", "ratio", "higher"),
    ("universe.self_s", "s", "lower"),
    ("universe.enumerate_s", "s", "lower"),
    ("formula.parse_calls", "count", "lower"),
    ("formula.eval_calls", "count", "lower"),
    ("formula.self_s", "s", "lower"),
    ("fragment_tables.self_s", "s", "lower"),
    ("fragment_tables.table_bytes", "bytes-computed", "lower"),
    ("verification.evaluate_calls", "count", "lower"),
    ("verification.self_s", "s", "lower"),
    ("qreals.qreal_calls", "count", "lower"),
    ("qreals.born_calls", "count", "lower"),
    ("qreals.self_s", "s", "lower"),
    ("generators.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Records spans of lvset calls while installed; single-threaded."""

    def __init__(self):
        self.names: list = []          # name id -> span name
        self._name_ids: dict = {}
        self.span_name: list = []      # per span: name id
        self.span_parent: list = []    # per span: parent span index or -1
        self.span_start: list = []
        self.span_end: list = []
        self._stack = [-1]
        self.counts = {"exactnum.mul_calls": 0, "exactnum.div_calls": 0}
        self.sessions: list = []
        self.table_bytes = 0
        self.repeat_calls = 0
        self.repeat_hits = 0
        self._seen_operands: set = set()
        self._patches: list = []       # (owner, attribute, original)

    # ------------------------------------------------------------ wrappers

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, name, fn, before=None, after=None):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _repeat_hook(self, op):
        seen = self._seen_operands

        def before(args):
            key = (op,) + tuple(args[1:])
            self.repeat_calls += 1
            if key in seen:
                self.repeat_hits += 1
            else:
                seen.add(key)

        return before

    def _add_session(self, args, result):
        self.sessions.append(args[0])

    def _add_tables(self, args, tables):
        self.table_bytes += sum(t.shape[0] * t.shape[1] * t.itemsize
                                for t in (tables.fwd, tables.mem, tables.eq))

    def _hooks(self, name):
        op = name.rsplit(".", 1)[-1]
        if name.startswith("lattice.ProjectionLattice.") and op in REPEAT_OPS:
            return self._repeat_hook(op), None
        if name == "universe.EvalSession.__init__":
            return None, self._add_session
        if name == "fragment_tables.boolean_truth_tables":
            return None, self._add_tables
        return None, None

    # ------------------------------------------------------ install/remove

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        replacement: dict = {}  # id(original function) -> wrapper
        for layer in SPANNED_LAYERS:
            module = importlib.import_module(f"lvset.{layer}")
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    qual = f"{layer}.{name}"
                    replacement[id(obj)] = self._span_wrapper(qual, obj, *self._hooks(qual))
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for module in [m for k, m in sys.modules.items()
                       if k == "lvset" or k.startswith("lvset.")]:
            for name, obj in list(vars(module).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None:
                    self._patch(module, name, wrapper)
        gq = importlib.import_module("lvset.exactnum").GaussianRational
        self._patch(gq, "__mul__", self._counter("exactnum.mul_calls", gq.__mul__))
        self._patch(gq, "__truediv__", self._counter("exactnum.div_calls", gq.__truediv__))

    def _install_class(self, layer, cls):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if attr.startswith("_") and not (attr == "__init__" and cls.__name__ in TRACED_INITS):
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            self._patch(cls, attr, self._span_wrapper(qual, fn, *self._hooks(qual)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def _arrays(self):
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        return names, parents, dur

    def layer_metrics(self, overhead_s: float) -> dict:
        """Per-layer counts and self times of everything recorded."""
        names, parents, dur = self._arrays()
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        span_layer = np.array([n.split(".")[0] for n in self.names] + [""],
                              dtype=object)[names]

        def ids(*qualnames):
            return [self._name_ids[q] for q in qualnames if q in self._name_ids]

        def count(*qualnames):
            return int(np.isin(names, ids(*qualnames)).sum())

        def inclusive(qualname):
            own = np.isin(names, ids(qualname))
            nested = has_parent & np.isin(names[np.maximum(parents, 0)], ids(qualname))
            return float(dur[own & ~nested].sum())

        def self_s(layer):
            return float(self_time[span_layer == layer].sum())

        def lattice(op):
            return count(*(f"lattice.{c}.{op}" for c in LATTICE_CLASSES))

        rref_ids = ids(*RREF_ENTRIES)
        is_rref = np.isin(names, rref_ids)
        rref_outer = is_rref & ~(has_parent & np.isin(names[np.maximum(parents, 0)], rref_ids))

        # projection meets and joins that reached a row reduction
        pl_ops = ids("lattice.ProjectionLattice.meet", "lattice.ProjectionLattice.join")
        subspace = np.isin(names, ids("projections.subspace_meet", "projections.subspace_join"))
        reduced = subspace & has_parent & np.isin(names[np.maximum(parents, 0)], pl_ops)
        trivial_base = int(np.isin(names, pl_ops).sum())
        trivial = trivial_base - len(set(parents[reduced].tolist()))

        truth_calls = count("universe.EvalSession.truth_equality",
                            "universe.EvalSession.truth_membership")
        misses = sum(sum(s.cache_sizes()) for s in self.sessions)

        values = {
            "exactnum.mul_calls": self.counts["exactnum.mul_calls"],
            "exactnum.div_calls": self.counts["exactnum.div_calls"],
            "exactmat.mat_mul_calls": count("exactmat.mat_mul"),
            "exactmat.rref_calls": int(rref_outer.sum()),
            "exactmat.span_add_calls": count("exactmat.Span.add"),
            "exactmat.self_s": self_s("exactmat"),
            "projections.construct_calls": count("projections.Projection.__init__"),
            "projections.span_calls": count("projections.proj_from_span"),
            "projections.meet_calls": count("projections.subspace_meet"),
            "projections.join_calls": count("projections.subspace_join"),
            "projections.complement_calls": count("projections.Projection.complement"),
            "projections.self_s": self_s("projections"),
            "projections.commutator_calls": count("projections.lattice_commutator"),
            "projections.commutator_s": inclusive("projections.lattice_commutator"),
            "lattice.meet_calls": lattice("meet"),
            "lattice.join_calls": lattice("join"),
            "lattice.ortho_calls": lattice("ortho"),
            "lattice.leq_calls": lattice("leq"),
            "lattice.self_s": self_s("lattice"),
            "lattice.repeat_ratio": _ratio(self.repeat_hits, self.repeat_calls),
            "lattice.repeat_base": self.repeat_calls,
            "lattice.trivial_ratio": _ratio(trivial, trivial_base),
            "lattice.trivial_base": trivial_base,
            "lattice.commutes_calls": lattice("commutes"),
            "universe.truth_calls": truth_calls,
            "universe.memo_hit_ratio": _ratio(truth_calls - misses, truth_calls),
            "universe.self_s": self_s("universe"),
            "universe.enumerate_s": inclusive("universe.enumerate_fragment"),
            "formula.parse_calls": count("formula.parse"),
            "formula.eval_calls": count("formula.eval_formula"),
            "formula.self_s": self_s("formula"),
            "fragment_tables.self_s": self_s("fragment_tables"),
            "fragment_tables.table_bytes": self.table_bytes,
            "verification.evaluate_calls": count("verification.evaluate_instance"),
            "verification.self_s": self_s("verification"),
            "qreals.qreal_calls": count("qreals.QReal.__init__"),
            "qreals.born_calls": count("qreals.born_probability"),
            "qreals.self_s": self_s("qreals"),
            "generators.self_s": self_s("generators"),
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in PER_LAYER}

    def write_spans(self, path):
        """One tab-separated line per span: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (nid, start, end, parent) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent)):
                out.write(f"{i}\t{names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _ratio(part: int, base: int) -> float:
    return part / base if base else 0.0
