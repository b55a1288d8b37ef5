"""Benchmark of sepgame: fresh-process workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root, which must hold src/sepgame and tests/corpus.
The workloads are defined in bench/workloads.py: verify-full, check-large,
enumerate-exhaustive and strategy-chain.

--trace 0: first, set-up probes (bench/setup_probe.py) time a fresh process
that imports the CLI and parses the workload's inputs.  Then this process
runs the workload in a closed loop of fresh child processes, one at a time,
each started after the previous one exits.  Children keep starting while the
elapsed time plus the median child time stays within --seconds; at least two
run.  The set-up probes have compiled the bytecode of every sepgame module by
then, so the first child starts as warm as the others.  Reported:
time_to_verdict_s, work_per_s, peak_rss_mb, setup_s.

Times are in reference-speed seconds.  On a shared virtual machine the speed
of a CPU drifts by tens of percent over tens of seconds, so raw wall times of
the same code differ that much from one run to the next.  This process and its
children are therefore pinned to one CPU, and right after every child this
process times a fixed pure-Python reference loop on that CPU.  A child's wall
time is scaled by REFERENCE_S over the mean of the reference times before and
after it, which is its wall time at the speed where the reference loop takes
REFERENCE_S.  The raw wall times are printed too.

--trace 1: the workload runs once untraced and once under bench/tracer.py,
both as fresh processes, and the per-layer metrics come from the traced one.
Then the corpus record (bench/record.py) runs, untimed.

Every invocation's output is checked against bench/pinned.json.  An unexpected
exit code, a traceback, a timeout or an output differing from the pinned answer
makes the invocation failed; failed / attempted is the failed fraction.
--seed sets PYTHONHASHSEED in every child; outputs must not depend on it.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from record import corpus_record
from workloads import Workload, check_output, path_labels, workloads, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
MIN_SAMPLES = 2
SETUP_PROBES = 5
REFERENCE_S = 0.0256     # median reference_time() on the 2-vCPU VM the bench was tuned on
REFERENCE_REPS = 3
REFERENCE_ITEMS = 10000
RUN_LIMIT_S = 170        # a run never lets a child go on past this

END_TO_END = {
    "time_to_verdict_s": "s",
    "work_per_s": "units/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "syntax.parse_s": "s",
    "proof.check_proof_s": "s",
    "logic.entails_calls": "count",
    "logic.entails_s": "s",
    "logic.is_precise_calls": "count",
    "logic.is_precise_s": "s",
    "logic.universe_states": "count",
    "logic.sat_cache_misses": "count",
    "logic.sat_cache_size": "count",
    "logic.sub_pairs_cache_misses": "count",
    "logic.satisfies_calls": "count",
    "logic.satisfies_s": "s",
    "semantics.enumerate_s": "s",
    "semantics.traces_yielded": "count",
    "semantics.root_member_calls": "count",
    "semantics.yield_ratio": "ratio",
    "semantics.machine_step_calls": "count",
    "traces.format_s": "s",
    "separation.assignments_generated": "count",
    "separation.component_assignments_s": "s",
    "separation.eve_moves_generated": "count",
    "game.empty_winning_plays_s": "s",
    "game.adam_extensions_calls": "count",
    "game.adam_extensions_s": "s",
    "game.refinements_kept": "count",
    "game.split_keep_ratio": "ratio",
    "game.refinements_cache_misses": "count",
    "game.check_winning_strategy_s": "s",
    "game.play_nodes": "count",
    "game.solve_eve_s": "s",
    "game.solver_nodes": "count",
    "soundness.extract_s": "s",
    "soundness.initial_refinements": "count",
    "soundness.drive_play_s": "s",
    "soundness.verify_corollary_s": "s",
    **{f"{layer}.self_s": "s" for layer in (
        "syntax", "proof", "logic", "semantics", "traces", "separation", "game",
        "soundness", "cli")},
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.dominant_share": "ratio",
    "process.startup_teardown_s": "s",
}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None
    timed_out: bool


def run_child(argv, root: Path, env: dict, stdout: Path, stderr: Path,
              timeout: float) -> Child:
    """Run one child to completion; wall time is spawn to exit, CPU time and
    peak RSS are this child's own (os.wait4), never the cumulative
    RUSAGE_CHILDREN."""
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            with lock:   # the pid is not reaped before "exited" is set
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            with lock:
                state["exited"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, state["killed"])


@dataclass(frozen=True)
class _Item:
    key: int
    pair: tuple


def _items(n):
    for i in range(n):
        yield _Item(i % 97, (i % 5, i % 3, "k"))


def reference_loop() -> int:
    """Fixed work of the kinds sepgame does: frozen dataclasses from a
    generator, tuple and dataclass keys in dicts, frozensets and a sort."""
    table, counts = {}, {}
    for i, item in enumerate(_items(REFERENCE_ITEMS)):
        table[(i, i % 7, "k")] = frozenset((item.key, item.pair))
        counts[item] = counts.get(item, 0) + 1
    return len(sorted(table.values(), key=len)) + len(counts)


def reference_time() -> float:
    """Median wall time of the reference loop in this process, now."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pin_to_one_cpu():
    """Run this process, and the children it starts, on one CPU, so that the
    reference loop times the CPU the children run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Bench:
    """One benchmark run of one workload, from the repository root."""

    def __init__(self, w: Workload, pinned: dict, root: Path, seed: int,
                 out_dir: Path):
        self.w = w
        self.pinned = pinned
        self.root = root
        self.out = out_dir / w.name
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED=str(seed % 2**32))
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = None      # the latest reference_time()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def workload_argv(self, traced=False) -> list:
        py = sys.executable
        if traced:
            return [py, str(BENCH_DIR / "tracer.py"), "--out", str(self.out / "trace"),
                    self.w.target, *self.w.args]
        if self.w.target == "chain":
            return [py, str(BENCH_DIR / "chain.py"), *self.w.args]
        return [py, "-m", "sepgame.cli", *self.w.args]

    def invoke(self, argv, tag, pinned=None) -> tuple:
        """Run one child and check it.  With `pinned`, it is a workload
        invocation and counts in attempted (and failed); otherwise it is a
        probe, which must exit 0 quietly."""
        stdout, stderr = self.out / f"{tag}.out", self.out / f"{tag}.err"
        child = run_child(argv, self.root, self.env, stdout, stderr,
                          max(5.0, self.remaining()))
        if pinned is not None:
            problems = check_output(pinned, child.exit_code, stdout, stderr,
                                    path_labels(self.w))
            self.attempted += 1
        else:
            text = stderr.read_text(encoding="utf-8", errors="replace")
            problems = [] if child.exit_code == 0 and not text.strip() else [
                f"exit code {child.exit_code}: {text.strip()[-200:]}"]
        if child.timed_out:
            problems.insert(0, "timed out")
        self.fail(tag, problems, counted=pinned is not None)
        return child, problems

    def fail(self, tag, problems, counted=True):
        if problems:
            self.failures.append(f"{tag}: " + "; ".join(problems))
            self.failed += int(counted)

    def timed(self, argv, tag, pinned=None) -> tuple:
        """invoke() with the child's wall time also in reference-speed
        seconds; returns (child, scaled wall time)."""
        before = self.reference if self.reference is not None else reference_time()
        child, _ = self.invoke(argv, tag, pinned)
        self.reference = reference_time()
        return child, child.wall_s * REFERENCE_S / ((before + self.reference) / 2)

    def probe_argv(self) -> list:
        return [sys.executable, str(BENCH_DIR / "setup_probe.py"), *self.w.parse_files]

    def untraced(self, seconds: float) -> dict:
        # The untimed first probe compiles bytecode in a fresh checkout.
        self.invoke(self.probe_argv(), "warmup")
        setup = [self.timed(self.probe_argv(), "setup") for _ in range(SETUP_PROBES)]
        loop_start = time.monotonic()
        children = []
        while True:
            children.append(self.timed(self.workload_argv(), "workload", self.pinned))
            elapsed = time.monotonic() - loop_start
            typical = statistics.median(c.wall_s for c, _ in children)
            if len(children) >= MIN_SAMPLES and elapsed + typical > seconds:
                break
            if self.remaining() < typical * 1.5:
                break
        scaled = sorted(x for _, x in children)
        ttv = statistics.median(scaled)
        tail = tail_percentile(scaled)
        print(f"time_to_verdict_s: median {ttv:.4f} s over n={len(scaled)}; "
              + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no percentile has 10 samples beyond it"))
        walls = sorted(c.wall_s for c, _ in children)
        print(f"raw wall median {statistics.median(walls):.4f} s; child cpu_s median "
              f"{statistics.median(c.cpu_s for c, _ in children):.4f}; scaled "
              f"{[round(x, 4) for x in scaled]}; raw {[round(x, 4) for x in walls]}")
        print(f"setup scaled {[round(x, 4) for _, x in setup]}; raw "
              f"{[round(c.wall_s, 4) for c, _ in setup]}")
        return {
            "time_to_verdict_s": ttv,
            "work_per_s": self.pinned["units"] / ttv,
            "peak_rss_mb": statistics.median(c.rss_mb for c, _ in children),
            "setup_s": statistics.median(x for _, x in setup),
        }

    def traced(self) -> dict:
        self.invoke(self.probe_argv(), "warmup")
        trace_json = self.out / "trace" / "trace.json"
        trace_json.unlink(missing_ok=True)
        plain, _ = self.invoke(self.workload_argv(), "untraced", self.pinned)
        traced, problems = self.invoke(self.workload_argv(traced=True), "traced",
                                       self.pinned)
        if not problems and not filecmp.cmp(self.out / "untraced.out",
                                            self.out / "traced.out", shallow=False):
            self.fail("traced", ["output differs from the untraced output"])
        doc = json.loads(trace_json.read_text(encoding="utf-8"))
        metrics = layer_metrics(doc, traced.wall_s, plain.wall_s, self.w.dominant)
        self.report_layers(doc, metrics)
        expected_calls = self.pinned.get("entailment_calls")
        calls = metrics["logic.entails_calls"] + metrics["logic.is_precise_calls"]
        if expected_calls is not None and calls != expected_calls:
            print(f"note: {calls} entails + is_precise calls, the pinned unit "
                  f"count assumes {expected_calls}")
        record = corpus_record(self.root, self.env, self.start + RUN_LIMIT_S - 5)
        (self.out / "corpus_record.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
        for entry in record["programs"]:
            print(f"corpus {entry['program']}: " + "; ".join(
                f"{verb} exit {r['exit_code']}{' TRACEBACK' if r['traceback'] else ''}"
                f" {r['verdict']}" for verb, r in entry.items() if verb != "program"))
        print(f"src_lines {record['src_lines']} (src/sepgame, informational)")
        return metrics

    def report_layers(self, doc, metrics):
        """The expected dominant layers must hold at least half of the traced
        main time; a mismatch is printed, not hidden."""
        selfs = layer_self_times(doc)
        top = max(selfs, key=selfs.get) if selfs else None
        share = metrics["trace.dominant_share"]
        print("layer self time (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
        verdict = "matches" if share >= 0.5 else "MISMATCH:"
        print(f"dominant layer {verdict} expected {sorted(self.w.dominant)} hold "
              f"{share:.1%} of traced main time; largest self time: {top}")
        print(f"span coverage {metrics['trace.coverage']:.1%} of traced main time; "
              f"tracing overhead x{metrics['trace.overhead']:.3f}; "
              f"{doc['spans']} spans, {doc['spans_dropped']} not kept")


def tail_percentile(values):
    """(p, value) for the highest whole percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    if p <= 0:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_self_times(doc) -> dict:
    out = defaultdict(float)
    for name, v in doc["per_name"].items():
        out[name.split(".", 1)[0]] += v["self_ns"] / 1e9
    return dict(out)


def layer_metrics(doc, traced_wall: float, untraced_wall: float, dominant) -> dict:
    """Per-layer metrics from a tracer document (see bench/tracer.py)."""
    per, counts, caches = doc["per_name"], doc["counts"], doc["caches"]

    def self_s(name):
        return per.get(name, {}).get("self_ns", 0) / 1e9

    def calls(name):
        return per.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    layers = layer_self_times(doc)
    main_s = doc["main_ns"] / 1e9
    yielded = counts.get("semantics.enumerate.yields", 0)
    assignments = counts.get("separation.component_assignments.yields", 0)
    kept = counts.get("game.refinements_kept", 0)
    values = {
        "syntax.parse_s": self_s("syntax.parse"),
        "proof.check_proof_s": self_s("proof.check_proof"),
        "logic.entails_calls": calls("logic.entails"),
        "logic.entails_s": self_s("logic.entails"),
        "logic.is_precise_calls": calls("logic.is_precise"),
        "logic.is_precise_s": self_s("logic.is_precise"),
        "logic.universe_states": counts.get("logic.universe_states", 0),
        "logic.sat_cache_misses": caches.get("logic.sat_cache_misses"),
        "logic.sat_cache_size": caches.get("logic.sat_cache_size"),
        "logic.sub_pairs_cache_misses": caches.get("logic.sub_pairs_cache_misses"),
        "logic.satisfies_calls": calls("logic.satisfies"),
        "logic.satisfies_s": self_s("logic.satisfies"),
        "semantics.enumerate_s": self_s("semantics.enumerate"),
        "semantics.traces_yielded": yielded,
        "semantics.root_member_calls": counts.get("semantics.root_member_calls", 0),
        "semantics.yield_ratio": ratio(yielded, counts.get("semantics.root_member_calls", 0)),
        "semantics.machine_step_calls": counts.get("semantics.machine_step_calls", 0),
        "traces.format_s": self_s("traces.format"),
        "separation.assignments_generated": assignments,
        "separation.component_assignments_s": self_s("separation.component_assignments"),
        "separation.eve_moves_generated": counts.get("separation.enumerate_eve_moves.yields", 0),
        "game.empty_winning_plays_s": self_s("game.empty_winning_plays"),
        "game.adam_extensions_calls": calls("game.adam_extensions"),
        "game.adam_extensions_s": self_s("game.adam_extensions"),
        "game.refinements_kept": kept,
        "game.split_keep_ratio": ratio(kept, assignments),
        "game.refinements_cache_misses": caches.get("game.refinements_cache_misses"),
        "game.check_winning_strategy_s": self_s("game.check_winning_strategy"),
        "game.play_nodes": counts.get("game.play_nodes", 0),
        "game.solve_eve_s": self_s("game.solve_eve"),
        "game.solver_nodes": counts.get("game.solver_nodes", 0),
        "soundness.extract_s": self_s("soundness.extract"),
        "soundness.initial_refinements": counts.get("soundness.initial_refinements", 0),
        "soundness.drive_play_s": self_s("soundness.drive_play"),
        "soundness.verify_corollary_s": self_s("soundness.verify_corollary"),
        "trace.coverage": ratio(doc["root_ns"], doc["main_ns"]),
        "trace.overhead": ratio(traced_wall, untraced_wall),
        "trace.dominant_share": ratio(sum(layers.get(x, 0.0) for x in dominant), main_s),
        "process.startup_teardown_s": traced_wall - main_s,
    }
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = layers.get(name.split(".", 1)[0], 0.0)
    return values


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    table = workloads(OUT_DIR)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(table))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/sepgame/cli.py", "tests/corpus") if not (root / p).exists()]
    if missing:
        print(f"run.py: run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    w = table[args.workload]
    pin_to_one_cpu()
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))[w.name]
    write_inputs(w, root)
    bench = Bench(w, pinned, root, args.seed, root / OUT_DIR)
    print(f"workload {w.name} ({w.unit}), seed {args.seed}, "
          f"PYTHONHASHSEED {bench.env['PYTHONHASHSEED']}")
    if args.trace:
        values, units = bench.traced(), PER_LAYER
    else:
        values, units = bench.untraced(args.seconds), END_TO_END
    for failure in bench.failures:
        print(f"FAILED {failure}")
    print(f"failed_frac {bench.failed / bench.attempted:.4f} ({bench.failed} of "
          f"{bench.attempted} workload invocations)")
    for name, unit in units.items():
        print(f"{name} {values[name]} {unit}")
    print(result_line(not bench.failures, bench.attempted, bench.failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
