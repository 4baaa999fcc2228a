"""Self-test of the benchmark on tiny inputs: the demo corpus and small synth
corpora. Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import aggregate  # noqa: E402

DEMO = ROOT / "tests" / "data" / "demo_corpus.jsonl"
DEMO_LABELS = ROOT / "tests" / "data" / "demo_labels_cutting.txt"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = (
    run.Workload("tiny-graph", 60),
    run.Workload("tiny-crawl", 120, crawl_budget=30),
)


@pytest.fixture
def tiny_workloads(monkeypatch):
    for w in TINY:
        monkeypatch.setitem(run.WORKLOADS, w.name, w)


def question_count(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(len(json.loads(line)["questions"]) for line in fh if line.strip())


def traced_calls(tmp_path: Path, argv: list[str]) -> dict[str, dict[str, float]]:
    spans = tmp_path / "spans.tsv"
    result = run.run_child(ROOT, [argv + ["--out", str(tmp_path / "out")]], 120, spans)
    assert result.ok, result.error
    return aggregate(spans)[0]


def test_benchmark_json_matches_the_benchmark():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny_workloads, capsys, trace):
    assert run.main(["--workload", "tiny-graph", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    record = json.loads(
        (ROOT / ".perfbench_runs" / "tiny-graph" / f"seed1-trace{trace}.json").read_text()
    )
    for m in wanted:
        assert m["name"] in record["metrics"], m["name"]
        assert f"{m['name']} {record['metrics'][m['name']]} {m['unit']}" in lines
    assert any(line.startswith("error_rate 0.0 ratio") for line in lines)


def test_tampered_output_fails_the_digest_gate(monkeypatch):
    real_run_child = run.run_child
    timed = []

    def tampering_run_child(root, commands, timeout, spans=None):
        result = real_run_child(root, commands, timeout, spans)
        if commands[0][0] == "pipeline":
            timed.append(commands)
            if len(timed) == 2:
                out = Path(commands[0][commands[0].index("--out") + 1])
                with open(out / "metrics.json", "a", encoding="utf-8") as fh:
                    fh.write(" ")
        return result

    monkeypatch.setattr(run, "run_child", tampering_run_child)
    record = run.measure(TINY[0], 5, 0.0, False, ROOT, None)
    assert record["failed"] == 1
    assert record["error_rate"] == 1 / record["attempted"]
    assert "digest" in record["failures"][0]


def test_times_are_scaled_by_the_calibration(monkeypatch):
    # A machine running at half the reference speed: every calibration sample
    # takes twice REF_S, so reported times are half the measured wall times.
    monkeypatch.setattr(run.calibrate, "sample", lambda: 2 * run.calibrate.REF_S)
    record = run.measure(TINY[0], 5, 0.0, True, ROOT, None)
    assert record["failed"] == 0, record["failures"]
    m = record["metrics"]
    assert m["run_s"] == pytest.approx(m["harness.wall_run_s"] / 2)
    assert m["setup_s"] == pytest.approx(m["harness.wall_setup_s"] / 2)
    assert m["harness.calibration_s"] == 2 * run.calibrate.REF_S
    # One window before the first child and one after every child.
    assert len(record["calibration_windows_s"]) == record["attempted"] + 1


def test_wrong_pinned_digest_fails_every_rep():
    record = run.measure(TINY[0], 5, 0.0, False, ROOT, "0" * 64)
    assert record["reps"] == [] and record["failed"] >= run.MIN_REPS


def test_crawl_workload_checks_and_properties():
    record = run.measure(TINY[1], 3, 0.0, False, ROOT, None)
    assert record["failed"] == 0, record["failures"]
    sampled = record["properties"]["sampled"]
    assert all(p["stub_profiles"] > 0 for p in sampled.values())
    assert record["properties"]["profiles"] == 120


def test_sampled_corpus_with_a_wrong_owner_fails_the_crawl_check(monkeypatch):
    real_run_child = run.run_child
    timed = []

    def tampering_run_child(root, commands, timeout, spans=None):
        result = real_run_child(root, commands, timeout, spans)
        if len(commands) > 1:
            timed.append(commands)
            if len(timed) == 1:
                # Same line count, but one frontier stub now belongs to a user
                # the crawl never reached.
                out = Path(commands[1][commands[1].index("--out") + 1])
                sampled = out / "sampled_corpus.jsonl"
                records = [json.loads(line) for line in sampled.open(encoding="utf-8")]
                next(r for r in records if not r["fully_sampled"])["owner"] = "not-a-user"
                sampled.write_text("".join(json.dumps(r) + "\n" for r in records),
                                   encoding="utf-8")
        return result

    monkeypatch.setattr(run, "run_child", tampering_run_child)
    record = run.measure(TINY[1], 3, 0.0, False, ROOT, None)
    assert record["failed"] == 1
    assert "crawl_a: sampled corpus" in record["failures"][0]


def test_tracer_counts_one_tokenize_per_question_under_stats(tmp_path):
    calls = traced_calls(tmp_path, ["stats", "--corpus", str(DEMO)])
    assert calls["corpus.tokenize"]["calls"] == question_count(DEMO)


# Runs in a fresh interpreter, because installing the tracer patches the
# askgraph modules for the rest of the process.
_BINDINGS_CHECK = """
import inspect, sys
sys.path[:0] = sys.argv[1:3]
import askgraph.cli
from tracer import LAYERS, Tracer
Tracer().install()
layers = {"askgraph." + layer for layer in LAYERS}
unpatched = sorted(
    f"{name}.{attr}"
    for name, module in sys.modules.items() if name.startswith("askgraph")
    for attr, obj in vars(module).items()
    if inspect.isfunction(obj) and obj.__module__ in layers
    and not obj.__name__.startswith("_") and not hasattr(obj, "__wrapped__")
)
print(unpatched)
"""


def test_tracer_patches_bindings_imported_by_name():
    proc = subprocess.run(
        [sys.executable, "-c", _BINDINGS_CHECK, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_self_time_is_within_inclusive_time(tmp_path):
    calls = traced_calls(
        tmp_path, ["pipeline", "--corpus", str(DEMO), "--labels", str(DEMO_LABELS)]
    )
    assert calls["segmentation.labeled_report"]["calls"] == 1
    assert all(0 <= e["self_s"] <= e["s"] for e in calls.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "graph-heavy", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
