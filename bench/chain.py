"""The strategy-chain workload: proof -> extracted strategy -> checker -> solver.

    python bench/chain.py PROGRAM PROOF -u UNIVERSE

For every full-permission initial state satisfying ``P * true`` (the states
``sepgame verify`` picks without ``--inits``) and every non-error passive
trace from it, the extracted strategy must pass ``check_winning_strategy`` and
the independent brute-force ``solve_eve`` must find a win.  One line per trace
goes to stdout; the exit code is 0 only when every trace passes both and has
at least one initial refinement.

Layer functions are called through their modules, so that the tracer's
wrappers (bench/tracer.py) see every call.
"""

from __future__ import annotations

import argparse
import sys

from sepgame import game, logic, proof, semantics, soundness, syntax
from sepgame.machine import MachineState


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="chain")
    ap.add_argument("program")
    ap.add_argument("proof")
    ap.add_argument("-u", "--universe", required=True)
    args = ap.parse_args(argv)

    u = syntax.parse_universe(_read(args.universe))
    prog = syntax.parse_program(_read(args.program))
    node = syntax.parse_proof(_read(args.proof))
    result = proof.check_proof(node, u, allow_extensions=True)
    if not result.ok or node.cmd != prog:
        print("proof rejected or does not match the program")
        return 1

    want = syntax.Star(node.pre, syntax.FTrue())
    inits = [sigma for sigma in logic.all_logical_states(u)
             if all(p == 1 for _, (_, p) in sigma.stack.items())
             and all(p == 1 for _, (_, p) in sigma.heap.items())
             and logic.satisfies(sigma, want, result.valuation, u)]

    ok = True
    index = nodes = 0
    for init in sorted(inits, key=logic.lstate_to_text):
        start = MachineState(logic.erase(init), frozenset())
        for t, returning, _ in semantics.enumerate_traces(
                node.cmd, [start], u, policy="passive"):
            if t.errored:
                continue
            strat = soundness.ExtractedStrategy(node, t, u, result.valuation)
            check = game.check_winning_strategy(strat, t, strat.spec, u)
            solved = game.solve_eve(t, strat.spec, u)
            won = not isinstance(solved, (game.NoWin, str))
            solved_text = (f"win {len(solved.initials)}" if won
                           else "unknown" if isinstance(solved, str) else "no win")
            ok &= bool(strat.initials) and check.verdict == "pass" and won
            print(f"trace {index} init {logic.lstate_to_text(init)} "
                  f"length={len(t)} returning={'yes' if returning else 'no'} "
                  f"initials={len(strat.initials)} check={check.verdict} "
                  f"({check.reason}) solve={solved_text}")
            nodes += int(check.reason.split()[1]) if check.verdict == "pass" else 0
            index += 1
    print(f"total {index} traces, {nodes} play nodes, "
          f"{'all pass' if ok else 'FAILED'}")
    return 0 if ok and index else 1


if __name__ == "__main__":
    sys.exit(main())
