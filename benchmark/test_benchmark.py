"""Tests of the benchmark itself; run with ``python -m pytest benchmark/``.

They drive ``run.py --smoke`` (a few ops per leg, one round) and check
the result line against BENCHMARK.json, the correctness scoring and
``compare.py``'s verdicts.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
from workloads import CHURN_CHUNK, score_reply  # noqa: E402


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    printed, result = smoke(workload, trace)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in printed
        ), metric["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_op_fails(workload, trace):
    _, result = smoke(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["stream-taint", "stream-clean"])
def test_streams_carry_five_wire_bytes_per_byte(workload):
    _, result = smoke(workload, 0)
    assert result["metrics"]["wire_x"]["value"] == pytest.approx(5.0, abs=0.01)


def test_clean_stream_takes_only_the_fast_path():
    _, result = smoke("stream-clean", 1)
    metrics = result["metrics"]
    assert metrics["core.taintmap.client.rpcs"]["value"] == 0
    assert metrics["core.wire.fastpath_share"]["value"] == 1.0


def test_churn_reaches_the_taint_map():
    _, result = smoke("taint-churn", 1)
    assert result["metrics"]["core.taintmap.client.rpcs"]["value"] > 0


def _churn_reply(drop: int = -1):
    """A 9-segment churn-shaped reply; segment ``drop`` loses its tag."""
    from repro.taint.tags import LocalId
    from repro.taint.tree import TaintTree
    from repro.taint.values import TBytes

    tree = TaintTree(LocalId("10.0.0.1", 1000))
    parts, segments = [], []
    for k in range(9):
        chunk = bytes([k]) * CHURN_CHUNK
        taint = tree.taint_for_tag(f"tag-{k}")
        parts.append(TBytes(chunk) if k == drop else TBytes.tainted(chunk, taint))
        segments.append((CHURN_CHUNK, frozenset(t.key() for t in taint.tags)))
    data = b"".join(bytes([k]) * CHURN_CHUNK for k in range(9))
    return TBytes.concat(parts), data, segments


def test_a_dropped_tag_is_scored_as_an_error():
    reply, data, segments = _churn_reply()
    assert score_reply(reply, data, segments) is None
    reply, data, segments = _churn_reply(drop=3)
    assert score_reply(reply, data, segments) is not None


def test_a_wrong_byte_is_scored_as_an_error():
    reply, data, segments = _churn_reply()
    assert score_reply(reply, data[:-1] + b"?", segments) is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _results(directory: Path, scale: float, seeds=range(1, 4), failed: int = 0) -> Path:
    directory.mkdir()
    for seed in seeds:
        metrics = {
            m["name"]: {"value": (1.0 + 0.001 * seed) * scale, "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
        record = {"workload": "stream-taint", "seed": seed, "trace": 0, "correct": not failed,
                  "attempted": 100, "failed": failed, "metrics": metrics}
        (directory / f"stream-taint-seed{seed}.json").write_text(json.dumps(record))
    return directory


def test_compare_accepts_equal_results(tmp_path, capsys):
    parent = _results(tmp_path / "parent", 1.0)
    change = _results(tmp_path / "change", 1.0)
    assert compare.main([str(parent), str(change)]) == 0
    assert "no regression" in capsys.readouterr().out


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    parent = _results(tmp_path / "parent", 1.0)
    change = _results(tmp_path / "change", 1.5)
    assert compare.main([str(parent), str(change)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_compare_flags_more_failed_ops(tmp_path):
    parent = _results(tmp_path / "parent", 1.0)
    change = _results(tmp_path / "change", 1.0, failed=1)
    assert compare.main([str(parent), str(change)]) == 1


def test_compare_claims_need_ten_winning_pairs(tmp_path, capsys):
    parent = _results(tmp_path / "parent", 1.0, seeds=range(1, 11))
    change = _results(tmp_path / "change", 0.8, seeds=range(1, 11))
    assert compare.main([str(parent), str(change), "--claim", "overhead_x:stream-taint"]) == 0
    assert "gain (10/10" in capsys.readouterr().out
    few_parent = _results(tmp_path / "few-parent", 1.0)
    few_change = _results(tmp_path / "few-change", 0.8)
    assert compare.main([str(few_parent), str(few_change),
                         "--claim", "overhead_x:stream-taint"]) == 1
