"""Self test of the benchmark harness; kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload at a tiny size with the checks on, shows that the
computed counters repeat exactly, and that a perturbed ``markov.csv`` is
counted as a failed op.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import reference
import workloads

ROOT = workloads.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B")


def _run(workload: str, trace: int, cwd=ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(workload):
    result = _result(_run(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = (_result(_run(workload, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units("per_layer")
    counts = [k for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS]
    assert counts
    for name in counts + ["estimate.markov_rel_err"]:
        assert first["metrics"][name] == second["metrics"][name], name


def test_perturbed_markov_counts_as_failed(tmp_path):
    workloads.import_priorsid()
    wl = workloads.make("mimo-long", tiny=True)
    inputs = wl.generate(5, tmp_path)
    wl.prepare(inputs)
    outcome = wl.collect(inputs, wl.run(inputs))
    ref = wl.reference(inputs)
    assert wl.check(outcome, None, ref) == []
    assert wl.check(outcome, outcome, ref) == []

    lines = outcome["files"]["markov.csv"].decode().splitlines()
    row = max(range(1, len(lines)), key=lambda r: abs(float(lines[r].split(",")[3])))
    k, i, j, value = lines[row].split(",")
    lines[row] = f"{k},{i},{j},{float(value) * (1 + 1e-6)!r}"
    perturbed = {**outcome, "files": {**outcome["files"], "markov.csv": ("\n".join(lines) + "\n").encode()}}
    alone = wl.check(perturbed, None, ref)
    assert any("KKT reference" in failure for failure in alone), alone
    against_first = wl.check(perturbed, outcome, ref)
    assert any("differ from the first op" in failure for failure in against_first), against_first


def test_reference_matches_the_library_layout():
    priorsid = workloads.import_priorsid()
    rng = np.random.default_rng(0)
    U, Y = rng.standard_normal((40, 2)), rng.standard_normal((40, 3))
    reg = priorsid.build_fir_regression(priorsid.IdentDataset(U=U, Y=Y, Ts=1.0), 4)
    phi, y = reference.fir_regression(U, Y, 4)
    assert np.array_equal(phi, reg.Phi) and np.array_equal(y, reg.Yvec)

    priors = workloads._prior_heavy_priors(rng.standard_normal((5, 3, 3)))
    cs = priorsid.compile_priors(
        [priorsid.fileio.prior_from_dict(p) for p in priors], priorsid.MarkovIndexing(3, 3, 4), 1.0
    )
    A, b = reference.constraint_rows(priors, 3, 3, 4, 1.0)
    assert np.array_equal(A, cs.A_eq) and np.array_equal(b, cs.b_eq)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("prior-heavy", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
