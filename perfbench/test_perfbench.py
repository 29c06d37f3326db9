"""Self-tests of the benchmark.  From the root of a checkout:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, name: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _outputs(wl: workloads.Workload, directory: Path, monkeypatch) -> list[str]:
    """Each invocation's standard output, from ``cli.main`` in this process."""
    from negshapley import cli

    wl.write(directory)
    monkeypatch.chdir(directory)
    texts = []
    for inv in wl.invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(inv.argv)) == inv.expect_exit
        texts.append(out.getvalue())
    return texts


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_repeat_for_a_seed(name):
    first, again, other = (workloads.build(name, seed) for seed in (7, 7, 8))
    assert first.instances == again.instances
    assert first.invocations == again.invocations
    assert any(first.instances[k].facts_text != other.instances[k].facts_text
               for k in first.instances)


def test_generators_repeat_across_hash_seeds():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print([workloads.build(n, 5).instances for n in workloads.WORKLOADS])")
    texts = {
        subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                       text=True, check=True, env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "2")
    }
    assert len(texts) == 1


def test_generators_fix_the_sizes_the_cost_depends_on():
    for seed in range(5):
        graph = workloads.graph_instance(seed, 9, 3, "g")
        edges = graph.facts_text.split()
        assert len(edges) == 27
        assert {e.split(",")[0] for e in edges} == {f"E(v{i}" for i in range(9)}
        recipe = workloads.recipe_instance(seed, 16, 8, 4, "r")
        rows = recipe.facts_text.split()
        assert len(rows) == 64 and recipe.supports == 4
        assert recipe.completion_size == (16 + 8) ** 2


def test_checker_accepts_real_outputs_and_rejects_a_shifted_score(tmp_path, monkeypatch):
    wl = workloads.build("coalition-games", 3, "smoke")
    texts = _outputs(wl, tmp_path, monkeypatch)
    assert checks.check_pass(wl, texts)[1] == [None] * len(texts)

    i = next(k for k, inv in enumerate(wl.invocations)
             if checks.flag(inv.argv, "--measure") == "drastic")
    payload = json.loads(texts[i])
    score = payload["records"][0]["values"]["drastic"]
    shifted = Fraction(int(score["num"]), int(score["den"])) + Fraction(1, len(payload["records"]))
    score.update(num=str(shifted.numerator), den=str(shifted.denominator))
    texts[i] = json.dumps(payload, indent=2) + "\n"
    problems = checks.check_pass(wl, texts)[1]
    assert "sum of drastic scores" in problems[i]
    assert [p for k, p in enumerate(problems) if k != i] == [None] * (len(texts) - 1)


def test_checker_ties_counting_scores_to_the_supports_listing(tmp_path, monkeypatch):
    wl = workloads.build("ms-score", 2, "smoke")
    texts = _outputs(wl, tmp_path, monkeypatch)
    assert checks.check_pass(wl, texts)[1] == [None] * len(texts)
    listing = next(k for k, inv in enumerate(wl.invocations)
                   if checks.flag(inv.argv, "--kind") == "signed")
    texts[listing] = "\n".join(texts[listing].splitlines()[:-1]) + "\n"  # drop a support
    problems = checks.check_pass(wl, texts)[1]
    assert "signed supports" in problems[listing]
    assert any(p and "sum of ms-signed scores" in p for p in problems)


def test_judge_fails_an_output_that_differs_from_its_recorded_digest(tmp_path, monkeypatch):
    wl = workloads.build("coalition-games", 4, "smoke")
    outcomes = [run.Outcome(0.0, 0, 0.0, text, "")
                for text in _outputs(wl, tmp_path, monkeypatch)]
    judge = run.Judge(wl)
    judge.recorded = {judge.keys[1]: checks.output_digest(outcomes[1].stdout),
                      judge.keys[2]: "0" * 64}
    judge.judge(outcomes)
    assert (judge.attempted, judge.failed, judge.digests_checked) == (len(outcomes), 1, 2)
    assert "recorded digest" in judge.problems[0]


def test_tracer_rebinds_every_importer_and_restores_them():
    from negshapley import cli, relevance, shapley, supports

    original = supports.satisfies
    trace = tracer.Tracer()
    trace.install()
    try:
        assert shapley.satisfies is relevance.satisfies is supports.satisfies
        assert supports.satisfies.__wrapped__ is original
        assert cli.ms_shapley is shapley.ms_shapley
    finally:
        trace.uninstall()
    assert shapley.satisfies is relevance.satisfies is supports.satisfies is original


def test_calibration_child_checks_its_kernel_and_never_loads_the_program():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import calibrate; "
            "code = calibrate.main(); "
            "print(code, any(m.startswith('negshapley') for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(HERE)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_prints_exactly_the_declared_metrics(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    start = perf_counter()
    proc = _bench(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    assert perf_counter() - start < 60
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workloads.build(name, 1, "smoke").invocations)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "ms-score", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
