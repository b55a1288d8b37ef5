"""The benchmark's workloads, run in process, print their pinned outputs.

Each workload's derived inputs are written under a temporary directory by
bench/workloads.py, the workload runs through `sepgame.cli.main` or
bench/chain.py's `main`, and its output is judged by the benchmark's own
`check_output` against bench/pinned.json: exit code, sha256 with the input
paths replaced by their file names, and the pinned last line, line pattern,
text or JSON fields.  A change of any verdict, count or rendering on these
inputs fails here before it fails the benchmark.
"""

import json

import pytest

from sepgame import cli

from .conftest import BENCH, bench_script

workloads = bench_script("workloads")
PINNED = json.loads((BENCH / "pinned.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_output_matches_its_pinned_answer(name, tmp_path, monkeypatch, capsys):
    w = workloads.workloads(out_dir=str(tmp_path))[name]
    root = BENCH.parent
    workloads.write_inputs(w, root)
    monkeypatch.chdir(root)          # the corpus inputs are relative paths
    main = bench_script("chain").main if w.target == "chain" else cli.main
    code = main(list(w.args))
    out, err = capsys.readouterr()
    stdout, stderr = tmp_path / "stdout", tmp_path / "stderr"
    stdout.write_text(out, encoding="utf-8")
    stderr.write_text(err, encoding="utf-8")
    assert workloads.check_output(PINNED[name], code, stdout, stderr,
                                  workloads.path_labels(w)) == []
