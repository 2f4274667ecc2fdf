"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import tracer
import workloads
from tracer import Tracer, metric

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
cli = child.import_localalg()


def run_and_judge(jobs, files, work: Path) -> list[str]:
    work.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    failures = []
    for job in jobs:
        code, out, _ = child.run_job(cli, job.argv)
        reason = job.judge(code, out)
        if reason is not None:
            failures.append(f"{' '.join(job.argv)}: {reason}")
    return failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7, Path("w"))
    assert workloads.generate(workload, 7, Path("w")) == first
    if workload in ("lift_swell", "spec_algebras", "known_failures"):
        assert workloads.generate(workload, 8, Path("w")) != first


def test_staircase_oracle_counts():
    alg = workloads.Monomial("q", ((0, 0), (1, 0), (0, 1), (2, 0)))
    assert alg.filtration_dims() == (3, 1, 0)
    assert alg.nu == 3
    assert alg.socle_size() == 2  # y and x^2
    assert workloads.square(3).socle_size() == 3
    assert workloads.trunc(4).socle_size() == 1


@pytest.mark.parametrize("workload,smallest", [
    ("verify_leaf", lambda j: "trunc:3" in j.argv and "1" == j.argv[j.argv.index("--m") + 1]),
    ("forms_solve", lambda j: j.argv[2:] == ("trunc:3", "--m", "1", "--degree", "3")),
    ("lift_swell", lambda j: "trunc:6" in j.argv),
    ("spec_algebras", lambda j: j.cls == "malformed" or "quotient9" in " ".join(j.argv)),
])
def test_oracles_agree_with_code_on_smallest_config(workload, smallest, tmp_path):
    jobs, files = workloads.generate(workload, 3, tmp_path)
    chosen = [j for j in jobs if smallest(j)]
    assert chosen
    assert run_and_judge(chosen, files, tmp_path) == []


def test_oracle_rejects_wrong_dimension():
    job = workloads.verify_job("trunc:3", 1, 2)
    code, out, _ = child.run_job(cli, job.argv)
    assert job.judge(code, out) is None
    assert job.judge(code, out.replace("NULLSPACE_DIM=7", "NULLSPACE_DIM=8")) is not None
    assert job.judge(4, out) is not None
    assert job.judge("ValueError", out) is not None


def test_tracer_wraps_every_binding_and_restores():
    import localalg
    from localalg import algebra, forms, lift, torus

    original = torus.solve_nullspace
    with Tracer():
        assert forms.solve_nullspace is torus.solve_nullspace is localalg.solve_nullspace
        assert torus.solve_nullspace.__wrapped__ is original
        assert lift.mul is algebra.mul and lift.mul.__wrapped__ is not None
        assert forms.assemble_function_constraints is torus.assemble_function_constraints
    assert torus.solve_nullspace is original and forms.solve_nullspace is original
    assert not hasattr(lift.mul, "__wrapped__")


def test_tracer_counts_calls_through_imported_names():
    job = workloads.forms_job("trunc:3", 1, 1)
    with Tracer() as t:
        code, _, _ = child.run_job(cli, job.argv)
    assert code == 0
    snap = t.snapshot()
    # forms calls solve_nullspace by its own imported name, once per system
    assert snap["torus.solve_nullspace"]["calls"] == 2
    assert snap["torus.assemble_function_constraints"]["cols"] > 0
    assert snap["cli.main"]["s"] >= snap["forms.cohomology_report"]["s"] > 0


def test_recursive_function_counted_per_call_timed_once():
    from localalg import expr

    e = expr.parse("x1 * x1", 1)  # diff visits Mul, then each Var
    with Tracer() as t:
        expr.diff(e, 1)
    stat = t.snapshot()["expr.diff"]
    assert stat["calls"] == 3
    assert 0 < stat["self_s"] <= stat["s"]


def test_absent_names_are_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracer, "METHODS", tracer.METHODS + ("torus.TrigSpace.gone",
                                                              "torus.NoClass.values"))
    with Tracer() as t:
        pass
    snap = t.snapshot()
    assert metric(snap, "torus.TrigSpace.gone.s") is None
    assert metric(snap, "torus.no_such_function.calls") is None
    assert metric(snap, "torus.solve_nullspace.calls") == 0


def test_every_per_layer_metric_resolves_today():
    special = {"trace.wall_s", "trace.overhead_s", "dominant_share", "wall_raw_s",
               "setup_raw_s"}
    with Tracer() as t:
        pass
    snap = t.snapshot()
    missing = [m["name"] for m in SPEC["per_layer"]
               if m["name"] not in special and metric(snap, m["name"]) is None]
    assert missing == []


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.TIMED)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify_leaf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
