"""Self-test of the end-to-end benchmark (tier-1, a few seconds).

Checks what would otherwise rot silently: ``BENCHMARK.json`` against the
driver's contract and against ``layers.py``, that every workload runs
and validates at ``--scale smoke`` (timed and traced), that every source
file has a layer, and that ``compare.py`` tells a regression from a file
compared with itself.
"""

import copy
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load(name):
    """Import a harness module by path, under a name of its own: the
    harness files have plain names (``layers``, ``compare``) that must
    not land in the test session's ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        f"e2e_{name}", os.path.join(HERE, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke pass over all five workloads: the timed runs and the
    traced runs, side by side to keep tier-1 short."""
    folder = tmp_path_factory.mktemp("e2e")
    passes = {}
    for trace in ("0", "1"):
        out = str(folder / f"trace{trace}.json")
        passes[trace] = out, subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--scale",
             "smoke", "--seconds", "0", "--trace", trace, "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    results = {}
    for trace, (out, process) in passes.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stdout[-2000:] + stderr[-2000:]
        with open(out, encoding="utf-8") as f:
            results[trace] = out, json.load(f), stdout
    return results


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1] == "benchmarks/e2e/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in spec[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in spec["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 64 * 1024


def test_benchmark_json_matches_the_metric_tables(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == layers.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: entry[:2] for name, entry in layers.PER_LAYER.items()}


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = {m[0] for m in layers.END_TO_END} | set(layers.EXACT)
    for name, (_unit, _better, moves, where) in layers.PER_LAYER.items():
        assert moves in end_to_end | {"none"}, name
        for workload in where.split(","):
            assert workload in layers.WORKLOADS + ("all",), name


def test_every_source_file_has_a_layer():
    unmapped = []
    for folder, _dirs, files in os.walk(layers.REPRO_DIR):
        for filename in files:
            if filename.endswith(".py"):
                rel = os.path.relpath(os.path.join(folder, filename),
                                      layers.REPRO_DIR)
                layer = layers.repro_layer(rel)
                if layer is None:
                    unmapped.append(rel)
                else:
                    assert layer in layers.LAYERS
    assert not unmapped, f"add these to layers._REPRO_LAYERS: {unmapped}"


def test_every_workload_validates_at_smoke_scale(smoke, spec):
    _, timed_result, stdout = smoke["0"]
    _, traced_result, _ = smoke["1"]
    assert timed_result["claim"] is None
    for key in ("nproc", "cpu", "python", "numpy", "blas_threads",
                "load_1min_start", "load_1min_end", "seed", "reps",
                "git_commit"):
        assert key in timed_result["environment"]
    for name in layers.WORKLOADS:
        workload = timed_result["workloads"][name]
        (timed,) = workload["runs"]
        (traced,) = traced_result["workloads"][name]["runs"]
        assert timed["correct"] and traced["correct"], name
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        assert set(timed["metrics"]) == {m["name"]
                                         for m in spec["end_to_end"]}
        assert all(value > 0 for value in timed["metrics"].values())
        assert set(traced["metrics"]) == {m["name"]
                                          for m in spec["per_layer"]}
        if workload["deterministic"]:
            assert traced["sim_digest"] == traced["sim_digest_untraced"]
            assert traced["sim_digest"] == timed["sim_digest"]
        assert traced["metrics"]["simnet.events.steps"] > 0
        assert traced["metrics"]["core.session.runs"] > 0
    # The driver reads the last line of standard output.
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True


def test_compare_accepts_itself_and_flags_a_doctored_regression(
        smoke, tmp_path):
    path, result, _stdout = smoke["0"]
    compare = os.path.join(HERE, "compare.py")
    same = subprocess.run([sys.executable, compare, path, path],
                          stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout

    slower = copy.deepcopy(result)
    wall = slower["workloads"]["fuzz_cold"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 1.5
    wall["values"] = [value * 1.5 for value in wall["values"]]
    slower["workloads"]["sgd_collective"]["sim_s"]["median"] *= 1.0000001
    slower["workloads"]["stencil_concrete"]["failed_frac"] = 0.01
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(slower), encoding="utf-8")
    worse = subprocess.run([sys.executable, compare, path, str(doctored)],
                           stdout=subprocess.PIPE, text=True)
    assert worse.returncode == 1, worse.stdout
    flagged = {tuple(line.split()[:2]) for line in worse.stdout.splitlines()
               if line.endswith("regressed")}
    assert flagged == {("fuzz_cold", "wall_s"), ("sgd_collective", "sim_s"),
                       ("stencil_concrete", "failed_frac")}
