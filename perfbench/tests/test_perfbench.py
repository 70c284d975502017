"""Tests for the benchmark: tracer wrapping, span counts, self-time sums and
the output contract of ``perfbench/run.py``.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import torushom
from torushom import complexes, harness, homology, moments, sampling
from torushom.complexes import ComplexParams, Convention
from torushom.harness import ExperimentConfig
from torushom.sampling import Poisson, SeedSpec
from torushom.torus import TorusSpec

from perfbench import workloads
from perfbench.tracer import LAYER_FUNCTIONS, SELF_TIME_TOLERANCE, Tracer
from perfbench.worker import measure

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Import sites named in the benchmark's design: (module holding it, name there).
LISTED_SITES = [
    (harness, "sample"),
    (harness, "simplex_counts"),
    (complexes, "count_cliques"),
    (complexes, "pairwise_distances"),
    (homology, "boundary_rank"),
    (moments, "j_oracle_mc"),
    (torushom, "sample"),
]


def _torushom_modules():
    return [m for k, m in sys.modules.items() if k == "torushom" or k.startswith("torushom.")]


def _holders(fn):
    return sorted((m.__name__, attr) for m in _torushom_modules()
                  for attr, v in vars(m).items() if v is fn)


def test_every_import_site_is_wrapped_then_restored():
    originals = [getattr(sys.modules[f"torushom.{mod}"], name) for mod, name, _ in LAYER_FUNCTIONS]
    holders_before = [_holders(fn) for fn in originals]
    listed = {(site.__name__, name): getattr(site, name) for site, name in LISTED_SITES}
    tracer = Tracer().install()
    try:
        for site, name in LISTED_SITES:
            wrapped = getattr(site, name)
            assert wrapped is not listed[(site.__name__, name)]
            assert wrapped.__wrapped__ is listed[(site.__name__, name)]
        for fn in originals:  # no torushom module still holds an unwrapped layer function
            assert _holders(fn) == []
    finally:
        tracer.restore()
    assert [_holders(fn) for fn in originals] == holders_before
    for site, name in LISTED_SITES:
        assert getattr(site, name) is listed[(site.__name__, name)]


def test_sample_spans_equal_configurations_drawn():
    tracer = Tracer().install()
    try:
        with tracer.root():
            harness.run_experiment(ExperimentConfig(
                law=Poisson(20.0), spec=TorusSpec(d=1, a=1.0),
                params=ComplexParams(epsilon=0.05), replications=7, master_seed=3,
                quantities=("N_2", "beta_0")))
            harness.coverage_experiment(
                TorusSpec(d=1, a=1.0),
                ComplexParams(epsilon=0.2, convention=Convention.SUBCOMPLEX_EPS),
                [10.0, 30.0, 100.0], reps=2, seed=SeedSpec(1))
        # spans are recorded only inside a root span
        sampling.sample(Poisson(5.0), TorusSpec(d=1, a=1.0), SeedSpec(2))
    finally:
        tracer.restore()
    assert sum(1 for s in tracer.spans if s[0] == "sampling.sample") == 7 + 3 * 2


def test_replicate_round_spans_match_its_replications():
    wl = workloads.Replicate(seed=5)
    res = measure(wl, seconds=0.0, trace=1)
    traced_configs = sum(c.reps for c in wl.CELLS)  # one traced round
    spans = res["tracer"].spans
    assert sum(1 for s in spans if s[0] == "sampling.sample") == traced_configs
    assert res["tally"].failed == 0


def test_a_failed_operation_counts_once():
    tally = workloads.Tally(attempted=10)
    tally.fail("mean off", ("cell", 0), 10)
    tally.fail("excluded", ("cell", 0), 3)
    tally.fail("slope off", ("cell", 0), 10)
    assert tally.failed == 10 <= tally.attempted


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_account_for_traced_wall_time(name):
    # Several rounds, so that a single pause in the benchmark's own
    # code between calls does not decide the share.
    res = measure(workloads.WORKLOADS[name](seed=2), seconds=3.0, trace=1)
    # The root span's own self time is what the layer self times leave of
    # the traced wall time.
    layers = res["tracer"].layer_metrics()
    assert layers["trace.unattributed_frac"][0] <= SELF_TIME_TOLERANCE, layers
    assert res["tally"].failed == 0, res["tally"].reasons


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_contract_result_line(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = _run(ROOT, "--workload", "homology", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr.decode()
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in bench[section]}
    for m in bench[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "replicate", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.decode().strip() == ""
