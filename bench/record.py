"""Untimed corpus record: `check` and `verify --inits` on every corpus program.

For each program in tests/corpus with a proof, universe and inits file, it
records the exit code, the verdict and whether a traceback appeared.  Known
defects are recorded as they are, not counted as benchmark failures.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from workloads import CORPUS, TRACEBACK


def _verdict(stdout, stderr, code):
    """`check` (and `verify` on a rejected proof) prints a list of violations;
    `verify` otherwise prints a report object."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if report == []:
        return "accepted"
    if isinstance(report, list):
        return f"rejected: {report[0].get('reason', '')}"
    if isinstance(report, dict):
        failures = report.get("failures", [])
        if not failures:
            return f"pass ({report.get('traces_checked')} traces)"
        return f"fail: {failures[0].get('reason', '')}"
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    return f"exit {code}: {lines[-1] if lines else 'no output'}"


def corpus_record(root: Path, env: dict, deadline: float) -> dict:
    """Run the record.  No invocation runs past `deadline` (a time.monotonic()
    value): one due after it is marked skipped, one reaching it is killed."""
    programs = []
    corpus = root / CORPUS
    for csl in sorted(corpus.glob("*.csl")):
        files = {ext: f"{CORPUS}/{csl.stem}{ext}" for ext in (".proof", ".uni", ".inits")}
        if not all((root / f).is_file() for f in files.values()):
            continue
        runs = {
            "check": ["check", files[".proof"], "-u", files[".uni"], "--allow-extensions"],
            "verify": ["verify", f"{CORPUS}/{csl.name}", files[".proof"], "-u", files[".uni"],
                       "--allow-extensions", "--inits", files[".inits"]],
        }
        entry = {"program": csl.stem}
        for verb, args in runs.items():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                entry[verb] = {"exit_code": None, "verdict": "skipped: run time limit",
                               "traceback": False}
                continue
            try:
                proc = subprocess.run([sys.executable, "-m", "sepgame.cli", *args],
                                      cwd=root, env=env, capture_output=True,
                                      text=True, timeout=remaining)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                code, out, err = None, "", "timed out"
            entry[verb] = {"exit_code": code,
                           "verdict": _verdict(out, err, code),
                           "traceback": TRACEBACK in err}
        programs.append(entry)
    src = root / "src" / "sepgame"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(src.rglob("*.py")))
    return {"programs": programs, "src_lines": src_lines}
