"""Tests of the benchmark itself, at ``--tiny`` sizes.

Run explicitly (tier-1 collects ``tests/`` only)::

    python3 -m pytest ledger -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from ledger import catalogue, env
from ledger.workloads import WORKLOADS

ROOT = env.ROOT
env.bootstrap()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = ["--tiny", "--seed", "5", "--seconds", "0"]


def _contract_line(stdout: str) -> dict:
    return json.loads(stdout.rstrip().splitlines()[-1])


def _child(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "ledger", "--workload", workload, "--trace", str(trace)]
        + TINY,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return _contract_line(done.stdout)


def _in_process(capsys, *argv: str) -> tuple[int, dict, str]:
    from ledger.__main__ import main

    code = main([*argv, *TINY])
    out = capsys.readouterr().out
    return code, _contract_line(out), out


def test_benchmark_json_is_the_catalogue_and_meets_the_contract():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == catalogue.benchmark_json()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert declared["run_seconds"] in range(1, 61)
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in declared["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in declared["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}
    ]
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")


def test_every_workload_emits_every_declared_metric_once_with_its_unit():
    # Traced and parallel runs take longest: start them first, and one more
    # at a time than there are cores, because cluster runs partly wait.
    # (urban_serial's traced run is the broken-patch-point test below.)
    jobs = [(w.name, trace) for trace in (1, 0) for w in reversed(WORKLOADS)]
    jobs.remove(("urban_serial", 1))
    with ThreadPoolExecutor(max_workers=3) as pool:
        lines = list(pool.map(lambda job: _child(*job), jobs))
    for (workload, trace), line in zip(jobs, lines):
        expected = catalogue.LAYER_NAMES if trace else catalogue.E2E_NAMES
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == list(expected), (workload, trace)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == catalogue.UNITS[name]
            assert isinstance(metric["value"], (int, float))
        assert line["correct"] and line["failed"] == 0, (workload, trace)
        assert line["attempted"] >= 1
        if trace == 0:  # end-to-end metrics are never 0
            assert all(m["value"] > 0 for m in line["metrics"].values()), workload


def test_a_broken_patch_point_reads_null_and_fails_nothing(capsys, monkeypatch):
    from ledger import probes, run

    moved = probes.Probe("core.features", "repro.core.features", "NoSuchExtractor.go")
    monkeypatch.setattr(
        run,
        "CORE_PROBES",
        tuple(moved if p.layer == "core.features" else p for p in run.CORE_PROBES),
    )
    code, line, out = _in_process(capsys, "--workload", "urban_serial", "--trace", "1")
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == list(catalogue.LAYER_NAMES)
    assert re.search(r"core\.features\.self_s\s+null\s+\(patch point .* not found", out)
    assert line["metrics"]["core.features.self_s"]["value"] == 0.0
    assert line["metrics"]["ledger.metrics_null"]["value"] == 2  # self_s and calls
    assert line["metrics"]["core.merge_tree.busy_s"]["value"] > 0


def test_a_raising_operation_is_counted_as_failed(capsys, monkeypatch):
    from repro import CorpusIndex

    def boom(self, *args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(CorpusIndex, "save", boom)
    code, line, out = _in_process(capsys, "--workload", "urban_serial", "--trace", "0")
    assert code == 0
    assert not line["correct"] and line["failed"] >= 2  # both saves of the round
    assert line["failed"] < line["attempted"]
    assert "FAILED save: OSError: disk full" in out
    assert line["metrics"]["build_s"]["value"] > 0


def test_results_of_differing_provenance_are_not_comparable():
    a = env.provenance(seed=1, seconds=10, tiny=False)
    b = dict(a, blas_threads={v: None for v in env.BLAS_VARS})
    assert env.provenance_mismatch(a, dict(a, commit="other")) == []
    assert env.provenance_mismatch(a, b) == ["blas_threads"]


def test_parallel_workloads_are_refused_without_two_cpus(capsys, monkeypatch):
    from ledger.__main__ import main

    monkeypatch.setattr(env, "usable_cpus", lambda: 1)
    assert main(["--workload", "urban_thread", *TINY]) == 2
    assert "refusing" in capsys.readouterr().err
