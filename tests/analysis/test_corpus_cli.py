"""The generated-program corpus and the ``python -m repro.analysis`` CLI."""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.__main__ import run_corpus

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRandomGraph:
    def test_deterministic_for_a_seed(self):
        # The corpus is the fuzz generator's programs, seeds S, S+1, ...:
        # the same --seed must verify the same graphs.
        assert run_corpus(3, seed=123) == run_corpus(3, seed=123)
        assert run_corpus(3, seed=123)["ops"] != run_corpus(3, seed=124)["ops"]


class TestVerifyCorpus:
    def test_small_sweep_is_clean(self):
        result = run_corpus(4, seed=99)
        assert result["graphs"] == 4
        assert result["plans_verified"] == 4
        assert result["false_positives"] == []
        assert result["mismatches"] == []

    def test_result_serializes(self):
        result = run_corpus(1, seed=5)
        assert set(result) == {"graphs", "ops", "plans_verified",
                               "false_positives", "mismatches", "seed"}
        json.dumps(result)  # must be JSON-serializable for the CI artifact


class TestCli:
    def _run(self, *args):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    def test_rules_listing(self):
        proc = self._run("--rules")
        assert proc.returncode == 0
        assert "plan/variable-race" in proc.stdout
        assert "graph/cycle" in proc.stdout

    def test_corpus_mode_with_json_artifact(self, tmp_path):
        artifact = tmp_path / "report.json"
        proc = self._run(
            "--skip-examples", "--corpus", "3", "--seed", "11",
            "--json", str(artifact),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(artifact.read_text())
        assert report["ok"] is True
        assert report["corpus"]["graphs"] == 3
        assert report["corpus"]["seed"] == 11
        assert report["corpus"]["false_positives"] == []

    def test_single_example_verifies(self, tmp_path):
        # One representative example end-to-end through the subprocess
        # lane (the full sweep is the CI verifier job's work).
        examples = tmp_path / "examples"
        examples.mkdir()
        script = examples / "tiny.py"
        script.write_text(
            "import repro as tf\n"
            "g = tf.Graph()\n"
            "with g.as_default():\n"
            "    c = tf.add(tf.constant([1.0]), tf.constant([2.0]))\n"
            "with tf.Session(graph=g) as sess:\n"
            "    assert sess.run(c)[0] == 3.0\n"
        )
        artifact = tmp_path / "report.json"
        proc = self._run(
            "--examples-dir", str(examples), "--json", str(artifact)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(artifact.read_text())
        (outcome,) = report["examples"]
        assert outcome["ok"] and outcome["plans"] >= 1
