"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/tests

It checks the metric names, that traced and untraced runs print the same
bytes, that a wrong pinned answer fails every invocation, that wall times are
scaled by the reference speed, and that cache counters read as null once the
cache they read is gone.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (Workload, path_labels, summarize_output,  # noqa: E402
                       workloads, write_inputs)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_UNIVERSE = ("vars = x, y\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\n"
                 "locks = r\nmaxlen = 2\nenv = passive\n")


def tiny_workloads(tmp: Path) -> list:
    """Small versions of a CLI run, a CLI verify and the strategy chain."""
    uni = str(tmp / "tiny.uni")
    prog = str(tmp / "tiny.csl")
    corpus = "tests/corpus"
    fa = [f"{corpus}/framed_assign.{ext}" for ext in ("csl", "proof", "uni", "inits")]
    derived = {uni: (None, TINY_UNIVERSE), prog: (None, "x := 1 ; x := 0\n")}
    return [
        Workload("tiny-run", "", "traces", "cli", ("run", prog, "-u", uni),
                 (uni, prog), frozenset({"semantics"}), derived),
        Workload("tiny-verify", "", "traces", "cli",
                 ("verify", fa[0], fa[1], "-u", fa[2], "--allow-extensions",
                  "--inits", fa[3]),
                 tuple(fa[:3]), frozenset({"game", "separation"})),
        Workload("tiny-chain", "", "traces", "chain",
                 (f"{corpus}/par_writes.csl", f"{corpus}/par_writes.proof", "-u", uni),
                 (uni,), frozenset({"game", "separation"}), derived),
    ]


def bench_for(w, tmp, sha256="0" * 64):
    write_inputs(w, ROOT)
    pinned = {"exit_code": 0, "sha256": sha256, "units": 1}
    return run.Bench(w, pinned, ROOT, seed=5, out_dir=tmp)


def test_metric_and_workload_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in doc[section]:
            assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads().values()]
    pinned = json.loads((ROOT / "bench" / "pinned.json").read_text(encoding="utf-8"))
    assert set(pinned) == set(workloads())


@pytest.mark.parametrize("index", range(3))
def test_traced_and_untraced_outputs_are_identical(tmp_path, index):
    w = tiny_workloads(tmp_path)[index]
    bench = bench_for(w, tmp_path)
    outs = []
    for traced in (False, True):
        out, err = tmp_path / f"{traced}.out", tmp_path / f"{traced}.err"
        child = run.run_child(bench.workload_argv(traced=traced), ROOT, bench.env,
                              out, err, timeout=60)
        assert child.exit_code == 0, err.read_text()
        outs.append(out.read_bytes())
    assert outs[0] and outs[0] == outs[1]
    doc = json.loads((bench.out / "trace" / "trace.json").read_text(encoding="utf-8"))
    metrics = run.layer_metrics(doc, 1.0, 1.0, w.dominant)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["trace.coverage"] > 0.5


def test_wrong_pinned_hash_fails_every_invocation(tmp_path):
    w = tiny_workloads(tmp_path)[0]
    wrong = bench_for(w, tmp_path)
    wrong.untraced(seconds=0)
    assert wrong.attempted >= run.MIN_SAMPLES
    assert wrong.failed == wrong.attempted
    right = summarize_output(wrong.out / "workload.out", path_labels(w)).sha256
    good = bench_for(w, tmp_path, right)
    good.untraced(seconds=0)
    assert good.failed == 0 and not good.failures


def test_timed_scales_wall_time_by_reference_speed(tmp_path, monkeypatch):
    """At half the reference speed, a child's scaled time is half its wall
    time."""
    monkeypatch.setattr(run, "reference_time", lambda: 2 * run.REFERENCE_S)
    bench = bench_for(tiny_workloads(tmp_path)[0], tmp_path)
    child, scaled = bench.timed(bench.probe_argv(), "probe")
    assert child.exit_code == 0
    assert scaled == pytest.approx(child.wall_s / 2)


def test_removed_cache_reads_as_null(monkeypatch):
    from sepgame import game, logic
    monkeypatch.setattr(logic, "_sat", lambda *args: True)   # no cache_info
    monkeypatch.delattr(game, "_refinements")
    counters = tracer.Tracer().cache_counters()
    assert counters["logic.sat_cache_misses"] is None
    assert counters["logic.sat_cache_size"] is None
    assert counters["game.refinements_cache_misses"] is None
    assert isinstance(counters["logic.sub_pairs_cache_misses"], int)
    doc = {"per_name": {}, "counts": {}, "caches": counters, "root_ns": 1, "main_ns": 1}
    line = run.result_line(True, 1, 0, run.layer_metrics(doc, 1.0, 1.0, set()),
                           run.PER_LAYER)
    assert json.loads(line)["metrics"]["logic.sat_cache_misses"]["value"] is None


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    p, _ = run.tail_percentile([float(i) for i in range(20)])
    assert p == 50
