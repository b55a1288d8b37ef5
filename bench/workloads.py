"""The benchmark's workloads and the checks of their outputs.

Every workload runs fixed inputs from ``tests/corpus``; three of them use a
universe derived from a corpus one, written under the output directory.  The
known answers (exit code, counts, sha256 of the output) live in
``bench/pinned.json``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

CORPUS = "tests/corpus"
TRACEBACK = "Traceback (most recent call last)"
KEEP_CHARS = 1 << 20       # outputs up to this many characters are also kept as text


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str                  # what one unit of work_per_s is
    target: str                # "cli": python -m sepgame.cli; "chain": bench/chain.py
    args: tuple                # arguments after the target
    parse_files: tuple         # what the set-up probe parses
    dominant: frozenset        # layers expected to hold most of the self time
    derived: dict = field(default_factory=dict)   # input path -> (base path, overrides)


def _corpus(name):
    return f"{CORPUS}/{name}"


def _inputs(out_dir, name):
    return f"{out_dir}/inputs/{name}"


def workloads(out_dir=".bench_out") -> dict:
    """Workload name -> Workload; derived inputs are placed under out_dir."""
    verify_uni = _inputs(out_dir, "verify-full.uni")
    check_uni = _inputs(out_dir, "check-large.uni")
    enum_uni = _inputs(out_dir, "enumerate-exhaustive.uni")
    enum_csl = _inputs(out_dir, "enumerate-exhaustive.csl")
    chain_uni = _inputs(out_dir, "strategy-chain.uni")
    if_def = [_corpus("if_def.csl"), _corpus("if_def.proof"), _corpus("if_def.uni")]
    par = [_corpus("par_writes.csl"), _corpus("par_writes.proof")]
    out = [
        Workload(
            "verify-full",
            "soundness corollary over all 12 full-permission initial states; "
            "game refinements and separation splits do most of the work",
            "traces checked", "cli",
            ("verify", if_def[0], if_def[1], "-u", verify_uni, "--allow-extensions"),
            (if_def[0], if_def[1], verify_uni), frozenset({"game", "separation"}),
            {verify_uni: (if_def[2], {"vals": "0..1"})}),
        Workload(
            "check-large",
            "proof checking on a two-location universe: bounded entailment in "
            "the logic layer, each judgement a cold cache miss",
            "logical states scanned", "cli",
            ("check", if_def[1], "-u", check_uni, "--allow-extensions"),
            (check_uni, if_def[1]), frozenset({"logic"}),
            {check_uni: (if_def[2], {"locs": "2, 3", "vals": "0..1"})}),
        Workload(
            "enumerate-exhaustive",
            "exhaustive-environment enumeration with maxlen past the last "
            "trace: semantics membership tests that reject, memo hashing",
            "traces yielded", "cli",
            ("run", enum_csl, "-u", enum_uni),
            (enum_uni, enum_csl), frozenset({"semantics"}),
            {enum_csl: (None, "x := 1\n"),
             enum_uni: (None, "vars = x\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\n"
                              "locks = r\nmaxlen = 2\nenv = exhaustive\n")}),
        Workload(
            "strategy-chain",
            "extracted strategy, strategy checker and brute-force solver on "
            "every non-error trace; the solver is the oracle",
            "traces through the chain", "chain",
            (par[0], par[1], "-u", chain_uni),
            (chain_uni, par[0], par[1]), frozenset({"game", "separation"}),
            {chain_uni: (_corpus("par_writes.uni"), {"vals": "0..1"})}),
    ]
    return {w.name: w for w in out}


def derive_universe(base_text: str, overrides: dict) -> str:
    """A universe file with the given `key = value` lines replaced."""
    lines = []
    for line in base_text.splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {overrides[key]}" if key in overrides else line)
    missing = set(overrides) - {ln.split("=", 1)[0].strip() for ln in lines}
    if missing:
        raise ValueError(f"base universe lacks {sorted(missing)}")
    return "\n".join(lines) + "\n"


def write_inputs(w: Workload, root: Path):
    """Write the workload's derived input files under root."""
    for path, (base, spec) in w.derived.items():
        text = spec if base is None else derive_universe(
            (root / base).read_text(encoding="utf-8"), spec)
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def path_labels(w: Workload) -> list:
    """Input paths as they may appear in outputs, longest first."""
    return sorted({a for a in w.args if "/" in a}, key=len, reverse=True)


@dataclass
class OutputSummary:
    sha256: str
    last_line: str
    bad_lines: int
    text: str | None           # whole output, when small enough to keep


def summarize_output(path: Path, labels, line_regex=None) -> OutputSummary:
    """Stream the output once: sha256 after replacing each input path label by
    its file name, the last non-empty line, and lines breaking line_regex."""
    digest = hashlib.sha256()
    last = ""
    bad = 0
    kept = []
    size = 0
    pattern = re.compile(line_regex[1]) if line_regex else None
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        for line in fh:
            for label in labels:
                if label in line:
                    line = line.replace(label, label.rsplit("/", 1)[-1])
            digest.update(line.encode("utf-8"))
            if line.strip():
                last = line.strip()
            if pattern and line.startswith(line_regex[0]) and not pattern.search(line):
                bad += 1
            size += len(line)
            if size <= KEEP_CHARS:
                kept.append(line)
    return OutputSummary(digest.hexdigest(), last, bad,
                         "".join(kept) if size <= KEEP_CHARS else None)


def check_output(pinned: dict, exit_code: int, stdout: Path, stderr: Path,
                 labels) -> list:
    """Reasons the invocation's result differs from the pinned answer."""
    problems = []
    if exit_code != pinned["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {pinned['exit_code']}")
    if TRACEBACK in stderr.read_text(encoding="utf-8", errors="replace"):
        problems.append("traceback on stderr")
    s = summarize_output(stdout, labels, pinned.get("line_regex"))
    if s.sha256 != pinned["sha256"]:
        problems.append(f"output sha256 {s.sha256[:12]}, expected {pinned['sha256'][:12]}")
    if "last_line" in pinned and s.last_line != pinned["last_line"]:
        problems.append(f"last line {s.last_line!r}")
    if s.bad_lines:
        problems.append(f"{s.bad_lines} lines break {pinned['line_regex'][1]!r}")
    if "text" in pinned and (s.text or "").strip() != pinned["text"]:
        problems.append("output text differs")
    if "json_fields" in pinned:
        try:
            doc = json.loads(s.text or "")
        except ValueError:
            doc = None
        if not isinstance(doc, dict):
            problems.append("output is not a JSON object")
        else:
            for key, want in pinned["json_fields"].items():
                if doc.get(key) != want:
                    problems.append(f"{key} = {doc.get(key)!r}, expected {want!r}")
    return problems
