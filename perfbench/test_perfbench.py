"""Tests of the benchmark itself, on the workloads' reduced instances.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import measure
import metrics as M
import run
from measure import end_to_end, per_layer, run_passes, score
from record import verify
from spans import NULL
from repro.mem.placement import placement_cost
from workloads import WORKLOADS, PassOutput, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_pass(workload, seed):
    wl = WORKLOADS[workload]
    inputs = wl.build(seed, reduced=True)
    out = PassOutput()
    wl.run_pass(inputs, NULL, out)
    return wl.input_digest(inputs), out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_misses(workload):
    digest_a, out_a = one_pass(workload, 3)
    digest_b, out_b = one_pass(workload, 3)
    assert digest_a == digest_b
    assert out_a.misses == out_b.misses
    assert not out_a.failed
    assert out_a.total_misses > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_other_corpus(workload):
    wl = WORKLOADS[workload]
    assert wl.input_digest(wl.build(1, reduced=True)) != wl.input_digest(
        wl.build(2, reduced=True)
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reduced_instance_matches_stepwise_oracle(workload):
    assert verify(workload, 0) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted(workload):
    wl = WORKLOADS[workload]
    inputs = wl.build(0, reduced=True)
    untraced = run_passes(wl, inputs, 0, traced=False)
    assert set(end_to_end(untraced, 1.0)) | {"setup_s"} == set(M.END_TO_END)
    traced = run_passes(wl, inputs, 0, traced=True)
    layers = per_layer(traced)
    assert set(layers) == set(M.PER_LAYER)
    main = {"schedule": "core", "sweep": "replay", "placement": "placement",
            "stream": "streaming"}[workload]
    assert layers[f"{main}.self_s"] > 0


def test_host_times_are_scaled_to_the_reference_host():
    out = PassOutput(replayed=1000)
    # this host ran the calibration kernel half as fast as the reference
    passes = [(2.0, 1.8, out, None, [2 * measure.CALIBRATION_S] * 4)] * 3
    metrics = end_to_end(passes, 1.0)
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["cpu_s"] == pytest.approx(0.9)
    assert metrics["accesses_per_s"] == pytest.approx(1000.0)
    assert measure.pass_times(passes)["wall_s"] == 2.0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == M.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == M.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)


def test_injected_failure_counts_instead_of_aborting():
    wl = WORKLOADS["schedule"]
    inputs = wl.build(0, reduced=True)
    victim = "01.random_pipeline"
    passes = run_passes(wl, inputs, 0, traced=False, inject={victim})
    attempted, failed, failures = score(wl, inputs, passes, reference=None)
    ops = passes[0][2].operations
    assert victim in ops and len(ops) == len(inputs)
    assert attempted == len(ops) * len(passes)
    assert failed == len(passes)
    assert list(failures) == [victim]


def test_reference_mismatch_counts_as_failure():
    wl = WORKLOADS["stream"]
    inputs = wl.build(0, reduced=True)
    passes = run_passes(wl, inputs, 0, traced=False)
    attempted, failed, failures = score(wl, inputs, passes, reference={"lru": "0" * 16})
    assert failed == len(passes) * (len(passes[0][2].operations))
    assert failures["lru"].startswith("differs from the reference")


def reference_of(out):
    return {op: digest(m) for op, m in out.misses.items() if op not in out.unpinned}


def other_search(wl, monkeypatch, per_target):
    """Make ``swap`` return the seed layout with two objects exchanged
    (which, on the reduced instance at seed 0, is better at two targets and
    no worse at the third), reporting ``per_target(true misses)``."""
    real = wl.search

    def search(inst, inputs, strategy):
        res = real(inst, inputs, strategy)
        if strategy != "swap":
            return res
        order = list(inst.objects)
        order[2], order[19] = order[19], order[2]
        per = [placement_cost(inst, order, g, policy=p) for g, p, _w in inputs.targets]
        assert per != res.seed_per_target
        assert all(m <= s for m, s in zip(per, res.seed_per_target))
        per = per_target(per)
        return dataclasses.replace(res, order=order, gaps={}, per_target=per, cost=sum(per))

    monkeypatch.setattr(wl, "search", search)


def test_other_valid_placement_search_result_is_not_an_error(monkeypatch):
    wl = WORKLOADS["placement"]
    inputs = wl.build(0, reduced=True)
    recorded = run_passes(wl, inputs, 0, traced=False)
    reference = reference_of(recorded[0][2])
    assert not any(op.startswith("search.") and not op.endswith(".seed") for op in reference)
    other_search(wl, monkeypatch, lambda per: per)
    passes = run_passes(wl, inputs, 0, traced=False)
    first = passes[0][2]
    assert first.misses["search.swap"] != recorded[0][2].misses["search.swap"]
    assert first.total_misses < recorded[0][2].total_misses
    assert score(wl, inputs, passes, reference)[1:] == (0, {})


def test_placement_search_result_a_recompile_contradicts_is_an_error(monkeypatch):
    wl = WORKLOADS["placement"]
    inputs = wl.build(0, reduced=True)
    other_search(wl, monkeypatch, lambda per: [m - 1 for m in per])
    passes = run_passes(wl, inputs, 0, traced=False)
    _attempted, failed, failures = score(wl, inputs, passes, reference=None)
    assert failed == len(passes)
    assert list(failures) == ["search.swap"]
    assert "recompiled layout misses" in failures["search.swap"]


def test_placement_credits_the_evals_the_searches_made():
    wl = WORKLOADS["placement"]
    inputs = wl.build(0, reduced=True)
    passes = run_passes(wl, inputs, 0, traced=False)
    probes_only = [p[2].replayed for p in passes]
    wl.account(inputs, [p[2] for p in passes])
    credited = [p[2].replayed - before for p, before in zip(passes, probes_only)]
    per_eval = len(inputs.targets) * passes[0][2].misses["instance"][0]
    assert len(set(credited)) == 1
    assert credited[0] % per_eval == 0
    # each of the three searches makes its seed and final evals plus at
    # least one of its own
    assert credited[0] >= 3 * 3 * per_eval


def test_launcher_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_compare_refuses_other_core_counts(tmp_path):
    result = {"workload": "sweep", "trace": 0, "attempted": 1, "failed": 0,
              "environment": {"cpu_count": 2, "affinity_cores": 2, "git": "x", "seed": 1},
              "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    other = json.loads(json.dumps(result))
    other["environment"]["affinity_cores"] = 1
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, r in zip(paths, (result, other)):
        path.write_text(json.dumps(r))
    assert compare.main([str(p) for p in paths]) == 2
    paths[1].write_text(json.dumps(result))
    assert compare.main([str(p) for p in paths]) == 0


@pytest.mark.slow
def test_launcher_end_to_end():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == M.END_TO_END
