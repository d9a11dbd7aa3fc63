"""The benchmark's own tests: every output check accepts correct outputs
and rejects a deliberately corrupted one, and the tracer covers every
per-layer metric of BENCHMARK.json.

    python3 -m pytest -q perfbench/test_perfbench.py

Workloads run here at small sizes, so the suite takes well under a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wls  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

import lvset.verification as vf  # noqa: E402


def failed_checks(wl, inputs, outputs, observed) -> set:
    return set().union(*wl.judge(inputs, outputs, observed))


def small(workload):
    inputs = workload.build(7)
    outputs = workload.run(inputs)
    return inputs, outputs, workload.observe(inputs, outputs)


# ------------------------------------------------------------ projection-laws

@pytest.fixture(scope="module")
def laws():
    wl = wls.ProjectionLaws(counts={2: 3, 3: 2})
    return (wl, *small(wl))


def test_projection_laws_pass(laws):
    assert failed_checks(*laws) == set()


@pytest.mark.parametrize("check, corrupt", [
    ("laws", lambda r: dataclasses.replace(r, laws={**r.laws, "absorption": False})),
    ("non-distributive", lambda r: dataclasses.replace(r, distributive=True,
                                                       distributivity_witness=None)),
    ("witness-float", lambda r: dataclasses.replace(
        r, distributivity_witness=(r.distributivity_witness[0],) * 3)),
    ("pairs", lambda r: dataclasses.replace(r, pairs_checked=r.pairs_checked + 1)),
])
def test_projection_laws_reject_corrupted_report(laws, check, corrupt):
    wl, inputs, outputs, observed = laws
    assert check in failed_checks(wl, inputs, [corrupt(outputs[0])] + outputs[1:], observed)


def test_projection_laws_reject_meet_of_wrong_rank(laws):
    wl, inputs, outputs, observed = laws
    lat, sample = inputs[0]
    x = sample[2]  # a rank-1 projection; x ∧ x = x
    pairs = [(a, b, meet, join) for a, b, meet, join in observed[0]]
    k = next(i for i, (a, b, _, _) in enumerate(pairs) if a is x and b is x)
    pairs[k] = (x, x, lat.bottom(), x)
    assert "modular-law" in failed_checks(wl, inputs, outputs, [pairs] + observed[1:])


@pytest.mark.parametrize("corrupt", [
    lambda x, y, meet, join: (x, y, join, meet),  # meet and join swapped
    lambda x, y, meet, join: (x, y, x, y),        # meet gives x, join gives y
])
def test_projection_laws_reject_meet_join_of_right_rank(laws, corrupt):
    wl, inputs, outputs, observed = laws
    lat, sample = inputs[0]
    x, y = sample[2], sample[3]  # two distinct generic lines: x ∧ y = 0, x ∨ y = 1
    pairs = list(observed[0])
    k = next(i for i, (a, b, _, _) in enumerate(pairs) if a is x and b is y)
    pairs[k] = corrupt(*pairs[k])
    assert wls.modular_law_holds(*pairs[k])  # the rank check alone cannot see it
    bad = failed_checks(wl, inputs, outputs, [pairs] + observed[1:])
    assert "meet-join-float" in bad and "modular-law" not in bad


# -------------------------------------------------------------- transfer-pool

@pytest.fixture(scope="module")
def transfer():
    wl = wls.TransferPool(pools=1, size=4)
    return (wl, *small(wl))


def test_transfer_pool_pass(transfer):
    assert failed_checks(*transfer) == set()


def test_transfer_pool_rejects_value_below_commutator(transfer, monkeypatch):
    wl, inputs, _, _ = transfer
    lat = inputs[0]
    original = vf.evaluate_instance

    def below_commutator(inst, session=None):
        value = original(inst, session)
        return lat.bottom() if inst.schema.name == "eq-reflexivity" else value

    monkeypatch.setattr(vf, "evaluate_instance", below_commutator)
    outputs = wl.run(inputs)
    monkeypatch.undo()
    assert "suite-passed" in failed_checks(wl, inputs, outputs, wl.observe(inputs, outputs))


def test_transfer_pool_rejects_wrong_instance_count(transfer):
    wl, inputs, outputs, observed = transfer
    suite = copy.copy(outputs[0])
    suite.sweeps = [dataclasses.replace(s, instances=s.instances - 1) if s.schema == "pairing"
                    else s for s in suite.sweeps]
    assert "instances" in failed_checks(wl, inputs, [suite] + outputs[1:], observed)


def copy_observed(observed):
    """Copies the observation containers; the lvset values stay shared."""
    pools = [{k: list(v) if isinstance(v, list) else v for k, v in pool.items()}
             for pool in observed["pools"]]
    return {**observed, "pools": pools}


def test_transfer_pool_rejects_reflexivity_below_one(transfer):
    wl, inputs, outputs, observed = transfer
    bad = copy_observed(observed)
    bad["pools"][0]["reflexive"][-1] = wls.dim2_lines()[0]
    assert "reflexivity" in failed_checks(wl, inputs, outputs, bad)


def test_transfer_pool_rejects_commutator_mismatch(transfer):
    wl, inputs, outputs, observed = transfer
    lat = inputs[0]
    bad = copy_observed(observed)
    bad["pools"][0]["commutators"].append((lat.top(), lat.bottom()))
    assert "pair-commutator" in failed_checks(wl, inputs, outputs, bad)


def test_transfer_pool_rejects_false_witness(transfer):
    wl, inputs, outputs, observed = transfer
    lat, pools, demo = inputs
    u, w = demo[1], demo[4]
    fake = vf.ViolationWitness("membership-left", u, u, w, lat.top(), lat.top(),
                               lat.bottom(), lat)
    assert wls._recompute_witness(fake) is False
    bad = copy_observed(observed)
    bad["pools"][0]["witness_genuine"] = False
    outputs = [outputs[0], fake] + outputs[2:]
    assert "witness-genuine" in failed_checks(wl, inputs, outputs, bad)


def test_transfer_pool_rejects_missing_demo_witness(transfer):
    wl, inputs, outputs, _ = transfer
    outputs = outputs[:-1] + [None]
    assert "demo-witness" in failed_checks(wl, inputs, outputs, wl.observe(inputs, outputs))


# ----------------------------------------------------------- boolean-fragment

@pytest.fixture(scope="module")
def boolean():
    wl = wls.BooleanFragment(atoms=1, rank=3, cross_check=20)
    return (wl, *small(wl))


def test_boolean_fragment_pass(boolean):
    assert failed_checks(*boolean) == set()


@pytest.mark.parametrize("table, check", [("eq", "collapse-eq"), ("mem", "collapse-mem")])
def test_boolean_fragment_rejects_flipped_bit(boolean, table, check):
    wl, inputs, outputs, tables = boolean
    flipped = np.array(getattr(tables, table))
    flipped[3, 5] ^= 1
    bad = dataclasses.replace(tables, **{table: flipped})
    assert check in failed_checks(wl, inputs, outputs, bad)


@pytest.mark.parametrize("check, schema, change", [
    ("instances", "eq-transitivity", {"instances": 1}),
    ("control", "control-distinct", {"passed": False}),
    ("suite-passed", "extensionality", {"passed": False}),
])
def test_boolean_fragment_rejects_corrupted_suite(boolean, check, schema, change):
    wl, inputs, outputs, tables = boolean
    suite = copy.copy(outputs[0])
    suite.sweeps = [dataclasses.replace(s, **change) if s.schema == schema else s
                    for s in suite.sweeps]
    assert check in failed_checks(wl, inputs, [suite, outputs[1]], tables)


def test_boolean_fragment_rejects_witness(boolean):
    wl, inputs, outputs, tables = boolean
    fragment = inputs[0]
    u = fragment.members[0]
    witness = vf.ViolationWitness("membership-left", u, u, u, 1, 1, 0, fragment.lattice)
    assert "no-witness" in failed_checks(wl, inputs, [outputs[0], witness], tables)


# --------------------------------------------------------------- quantum-reals

@pytest.fixture(scope="module")
def quantum():
    wl = wls.QuantumReals(mix={(2, 2): 2, (3, 2): 1})
    return (wl, *small(wl))


def test_quantum_reals_pass(quantum):
    assert failed_checks(*quantum) == set()


def _corrupt_first(outputs, **changes):
    first = dict(outputs[0], **changes)
    return [first] + outputs[1:]


def test_quantum_reals_reject_corrupted_outputs(quantum):
    wl, inputs, outputs, classical = quantum
    first = outputs[0]
    bottom = first["qreal"].lattice.bottom()
    born = list(first["born"])
    shifted = [born[0] + Fraction(1, 100), born[1] - Fraction(1, 100)] + born[2:]
    cases = {
        "real-predicate": {"real": bottom},
        "refinement": {"refined_eq": bottom},
        "born-sum": {"born": [born[0] + Fraction(1, 100)] + born[1:]},
        "born-numpy": {"born": shifted},
        "commuting-oracle": {"commuting": dataclasses.replace(first["commuting"],
                                                              model_dependent=True)},
        "model-dependent": {"independent": dataclasses.replace(
            first["independent"], model_dependent=not first["independent"].model_dependent)},
    }
    for check, change in cases.items():
        bad = failed_checks(wl, inputs, _corrupt_first(outputs, **change), classical)
        assert check in bad, check


def test_quantum_reals_reject_changed_probability(quantum):
    wl, inputs, outputs, classical = quantum
    pc = outputs[0]["commuting"]
    changed = dataclasses.replace(pc, value=pc.value + Fraction(1, 1000))
    bad = failed_checks(wl, inputs, _corrupt_first(outputs, commuting=changed), classical)
    assert {"born-numpy", "commuting-oracle"} <= bad


# -------------------------------------------------------------------- tracer

def test_per_layer_metrics_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert config["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]


def test_tracer_counts_layers_and_restores_originals():
    import lvset.lattice as lattice
    import lvset.projections as pj
    originals = (pj.subspace_meet, lattice.ProjectionLattice.meet, lattice.pj.proj_from_span)
    wl = wls.ProjectionLaws(counts={2: 2})
    tracer = Tracer()
    tracer.install()
    try:
        assert pj.subspace_meet is not originals[0]
        wl.run(wl.build(1))
    finally:
        tracer.uninstall()
    assert (pj.subspace_meet, lattice.ProjectionLattice.meet,
            lattice.pj.proj_from_span) == originals
    metrics = tracer.layer_metrics(0.0)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    for name in ("exactnum.mul_calls", "exactmat.rref_calls", "projections.meet_calls",
                 "lattice.meet_calls", "lattice.commutes_calls", "lattice.repeat_base"):
        assert metrics[name]["value"] > 0, name
    assert metrics["qreals.qreal_calls"]["value"] == 0
    assert 0 < metrics["lattice.trivial_ratio"]["value"] < 1
    assert metrics["lattice.self_s"]["value"] > 0


# --------------------------------------------------------------------- runner

def test_runner_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "transfer-pool",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
