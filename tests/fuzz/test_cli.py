"""``python -m repro.fuzz`` CLI: sweeps, reports, corpus replay."""

import json

import numpy as np

from repro.core.kernels.registry import get_kernel, override_kernel
from repro.fuzz.__main__ import _parse_seeds, main


def test_parse_seeds_forms():
    assert _parse_seeds("0..5") == [0, 1, 2, 3, 4]
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("1,5,9") == [1, 5, 9]
    assert _parse_seeds("3..3") == []


def test_clean_sweep_exits_zero_and_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "--seeds", "0..4", "--ops", "8",
        "--json", str(report_path),
        "--out", str(tmp_path / "repros"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ok   fuzz: 4 program(s)" in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["summary"]["ok"] is True
    assert report["summary"]["programs"] == 4
    assert len(report["seeds"]) == 4
    for entry in report["seeds"]:
        assert entry["ok"] is True
        assert entry["cells"]
        assert entry["source"] == "sweep"
    # Nothing diverged, so nothing was shrunk.
    assert not (tmp_path / "repros").exists()


def test_corpus_seeds_replay_before_the_sweep(tmp_path):
    corpus = tmp_path / "seeds.json"
    corpus.write_text(json.dumps([
        {"seed": 31, "ops": 8, "note": "regression: example entry"},
    ]), encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main([
        "--seeds", "0..2", "--ops", "6",
        "--corpus", str(corpus),
        "--json", str(report_path),
        "--out", str(tmp_path / "repros"),
    ])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    sources = [entry["source"] for entry in report["seeds"]]
    assert sources == ["corpus", "sweep", "sweep"]
    assert report["seeds"][0]["seed"] == 31


def test_matrix_subset_restricts_cells(tmp_path):
    report_path = tmp_path / "report.json"
    code = main([
        "--seeds", "0..3", "--ops", "8",
        "--matrix", "eager",
        "--json", str(report_path),
        "--out", str(tmp_path / "repros"),
    ])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for entry in report["seeds"]:
        labels = [
            label for label in entry["cells"] if "baseline" not in label
        ]
        assert labels == ["eager"]


def _buggy_eager_mul(original):
    def kernel(op, inputs, ctx):
        outputs = original(op, inputs, ctx)
        if ctx.env is None and isinstance(outputs[0], np.ndarray):
            outputs = [outputs[0] + np.asarray(1, dtype=outputs[0].dtype)]
        return outputs

    return kernel


def test_divergence_fails_the_run_and_emits_a_shrunk_script(tmp_path,
                                                            capsys):
    report_path = tmp_path / "report.json"
    out_dir = tmp_path / "repros"
    with override_kernel("Mul", _buggy_eager_mul(get_kernel("Mul"))):
        code = main([
            "--seeds", "0..30", "--ops", "12",
            "--json", str(report_path),
            "--out", str(out_dir),
        ])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["summary"]["failures"] >= 1
    failing = [e for e in report["seeds"] if not e["ok"]]
    assert failing
    shrunk = [e["shrunk"] for e in failing if "shrunk" in e]
    assert shrunk, "at least one divergence must have been shrunk"
    for record in shrunk:
        assert record["ops"] <= record["original_ops"]
        script = out_dir / record["script"].split("/")[-1]
        assert script.exists()
        compile(script.read_text(encoding="utf-8"), str(script), "exec")


def test_no_shrink_flag_skips_reduction(tmp_path):
    report_path = tmp_path / "report.json"
    with override_kernel("Mul", _buggy_eager_mul(get_kernel("Mul"))):
        code = main([
            "--seeds", "0..30", "--ops", "12", "--no-shrink",
            "--json", str(report_path),
            "--out", str(tmp_path / "repros"),
        ])
    assert code == 1
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert all("shrunk" not in entry for entry in report["seeds"])
