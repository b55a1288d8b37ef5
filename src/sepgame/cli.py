"""Command-line front door: run, check, verify, game, solve.

Exit codes: 0 pass; 1 logical failure (rejected proof, counterexample,
unwinnable game, a strategy that cannot be extracted or breaks its own
invariants, a trace with no initial refinement in `game`, `solve` or
`verify`, or a vacuous `verify` run that checks no trace and finds no
failure); 2 usage or I/O error or malformed input, a negative `--maxlen`,
`--max-traces` or `--budget` included; 3 enumeration budget exceeded.

Each verb imports only the layers it runs.  Importing this module loads
`syntax` (and `maps`); `check` adds `machine`, `logic` and `proof`; `run`
adds `machine`, `logic`, `semantics` and `traces`; `verify`, `game` and
`solve` load every layer.  A process that writes no bytecode cache compiles
each module it imports from source, and that compiling is most of its
start-up, so the play layers stay out of `check` and `run`.
The names this module reads from a layer are module globals all the same:
a verb binds them before it runs, keeping a name already bound, and
`__getattr__` imports a name's layer on first access.  So a wrapper patched
onto a name here (the benchmark's tracer does that) is what the verb calls.

`process_main` is the process entry, run by `python -m sepgame.cli` and by
the `sepgame` script.  Once `main` has written the verdict it freezes the
heap (`gc.freeze`), so the interpreter's collections at exit skip every
object alive by then: the caches, universe tables and records a verdict
builds, and the interpreter's own.  On a `check` over a two-location
universe those passes took longer than the check itself.  `main` itself freezes nothing and
importing this module registers nothing, because tests and the benchmark's
tracer call `main` in process, where a freeze would keep their objects for
the rest of the process.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys

from .syntax import (AllocC, Assign, Load, Own, ParseError, ResourceC, Var, WithWhen,
                     is_logical_name, parse_program, parse_proof, parse_universe,
                     subterms)

# The names this module reads from each layer past syntax.
_LAYERS = {
    "machine": ("MachineState", "resolve_env_moves"),
    "logic": ("all_logical_states", "erase", "lstate_from_text", "slots",
              "universe_table"),
    "proof": ("check_proof",),
    "semantics": ("EnumerationBudget", "enumerate_traces"),
    "traces": ("trace_to_lines",),
    "separation": ("sep_state_to_text",),
    "game": ("NoWin", "check_winning_strategy", "replay_lines", "solve_eve"),
    "soundness": ("ExtractedStrategy", "ExtractionFailure", "SoundnessAlarm",
                  "initial_condition", "verify_corollary"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

# Exit code and the words opening the message of each failure a play layer
# raises.
_FAILURES = {"ExtractionFailure": (1, ""), "SoundnessAlarm": (1, ""),
             "EnumerationBudget": (3, "budget exceeded: ")}


def _load(*layers):
    """Import `layers` and bind the names read from them, keeping a name
    that is already bound."""
    bound = globals()
    for layer in layers:
        module = importlib.import_module(f".{layer}", __package__)
        for name in _LAYERS[layer]:
            bound.setdefault(name, getattr(module, name))


def __getattr__(name):
    """A name read from a layer, whose layer is imported on first access."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_LAYER_OF[name])
    return globals()[name]


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _write_out(text: str, path=None):
    if path is None:
        try:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        except OSError as exc:   # a closed pipe or a full disk
            # the flush at exit must not write to the lost output again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError(f"cannot write output: {exc.strerror}")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}")


def _load_universe(path):
    u = parse_universe(_read(path))
    for texts, states in zip(u.env_moves_text, resolve_env_moves(u)):
        for text, s in zip(texts, states):
            _check_in_universe(text, s, u)
    return u


def _check_in_universe(text, s: MachineState, u, perms=()):
    """Reject a state that names a variable, location, value, permission or
    lock the universe does not declare."""
    mu = s.memory
    unknown = ([f"variable {x}" for x in mu.stack if x not in u.variables]
               + [f"location {loc}" for loc in mu.heap if loc not in u.locations]
               + [f"value {v}" for _, v in mu.stack.items() + mu.heap.items()
                  if v not in u.values]
               + [f"permission {p}" for p in perms if p not in u.perms]
               + [f"lock {r}" for r in sorted(s.locked) if r not in u.locks])
    if unknown:
        raise ParseError(f"{unknown[0]} of state {text!r} is not in the universe")


def _check_declared(whose, terms, locks, u):
    """Reject a program or proof that names a variable or lock the universe
    does not declare in one of its subterms `terms` or, for a lock, `locks`."""
    variables = {n.name if isinstance(n, Var) else n.var for n in terms
                 if isinstance(n, (Var, Assign, Load, AllocC, Own))}
    locks = locks | {n.lock for n in terms if isinstance(n, (ResourceC, WithWhen))}
    for what, named, declared in (("variable", variables, u.variables),
                                  ("lock", locks, u.locks)):
        unknown = sorted(named - set(declared))
        if unknown:
            raise ParseError(f"{what} {unknown[0]} of the {whose} is not in the universe")


def _load_program(args):
    """The universe, and the program, which names no variable and no lock the
    universe does not declare."""
    u = _load_universe(args.universe)
    prog = parse_program(_read(args.program))
    _check_declared("program", list(subterms(prog)), set(), u)
    return u, prog


def _read_lstate(text, u):
    """A logical state given on the command line or in an inits file."""
    sigma = lstate_from_text(text)
    _check_in_universe(text, MachineState(erase(sigma), frozenset()), u,
                       [p for *_, p in slots(sigma)])
    return sigma


def _load_checked_proof(args, u):
    """The proof, which names no program variable or lock the universe does
    not declare (in a formula, command, context or res rule), and its check."""
    node = parse_proof(_read(args.proof))
    nodes, parts, locks = [node], [], set()
    for n in nodes:         # the list grows by each node's premises
        nodes.extend(n.children)
        parts += [n.pre, n.cmd, n.post, *n.ctx.values(),
                  *(n.params[k] for k in ("R", "inv") if k in n.params)]
        locks |= set(n.ctx) | ({n.params["r"]} if "r" in n.params else set())
    terms = [t for f in parts for t in subterms(f)
             if not (isinstance(t, Var) and is_logical_name(t.name))]
    _check_declared("proof", terms, locks, u)
    result = check_proof(node, u, allow_extensions=args.allow_extensions)
    return node, result


def _full_perm_states(states):
    """The logical states among `states` that hold every slot whole."""
    return [sigma for sigma in states
            if all(p == 1 for _, (_, p) in sigma.stack.items() + sigma.heap.items())]


def _full_perm_inits(node, rho, u):
    """Initial logical states for the corollary: the universe table's
    full-permission states satisfying `initial_condition`, in the table's
    order, read off its models (rho binds every logical variable of an
    accepted proof)."""
    table = universe_table(u)
    models = table.models(initial_condition(node), rho)
    return _full_perm_states(sigma for i, sigma in enumerate(table.states)
                             if models >> i & 1)


def _full_perm_machine_states(u):
    return {MachineState(erase(sigma), frozenset())
            for sigma in _full_perm_states(all_logical_states(u))}


def cmd_run(args) -> int:
    _load("machine", "logic", "semantics", "traces")
    u, prog = _load_program(args)
    if args.init is not None:
        inits = [MachineState(erase(_read_lstate(args.init, u)), frozenset())]
    else:
        inits = _full_perm_machine_states(u)
    lines = []
    total = returning = 0
    try:
        for t, ret, _ in enumerate_traces(prog, inits, u, maxlen=args.maxlen,
                                          max_traces=args.max_traces):
            lines.append(f"trace {total} returning={'yes' if ret else 'no'} "
                         f"length={len(t)}")
            lines.extend(trace_to_lines(t))
            lines.append("")
            total += 1
            returning += int(ret)
    except EnumerationBudget as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    lines.append(f"total {total} traces, {returning} returning")
    _write_out("\n".join(lines), args.output)
    return 0


def cmd_check(args) -> int:
    import json
    _load("machine", "logic", "proof")
    u = _load_universe(args.universe)
    node, result = _load_checked_proof(args, u)
    _write_out(json.dumps(result.report(args.universe), indent=2,
                          sort_keys=True), args.output)
    return 0 if result.ok else 1


def cmd_verify(args) -> int:
    import json
    _load(*_LAYERS)
    u, prog = _load_program(args)
    node, result = _load_checked_proof(args, u)
    if result.ok and node.cmd != prog:
        print("program does not match the proof's conclusion", file=sys.stderr)
        return 1
    if not result.ok:
        _write_out(json.dumps(result.report(args.universe), indent=2,
                              sort_keys=True), args.output)
        return 1
    if args.inits is not None:
        inits = [_read_lstate(line, u) for line in _read(args.inits).splitlines()
                 if line.strip() and not line.strip().startswith("#")]
    else:
        inits = _full_perm_inits(node, result.valuation, u)
    report = verify_corollary(result, node, inits, u, maxlen=args.maxlen,
                              emit_replays=args.emit_replays,
                              program_label=args.program,
                              proof_label=args.proof)
    _write_out(json.dumps(report, indent=2, sort_keys=True), args.output)
    if not report["traces_checked"] and not report["failures"]:
        print("verify: vacuous (no trace checked)", file=sys.stderr)
        return 1
    return 0 if not report["failures"] else 1


def _strategy_on_trace(args):
    """The universe, the trace at --trace-index, whether it returns and the
    strategy extracted from the checked proof on it; None, once reported,
    when the proof is rejected or proves another program."""
    _load(*_LAYERS)
    u, prog = _load_program(args)
    node, result = _load_checked_proof(args, u)
    if not result.ok:
        print("proof rejected; run `sepgame check` for details", file=sys.stderr)
        return None
    if node.cmd != prog:
        print("program does not match the proof's conclusion", file=sys.stderr)
        return None
    traces = enumerate_traces(prog, _full_perm_machine_states(u), u,
                              maxlen=args.maxlen)
    for i, (t, ret, _) in enumerate(traces):
        if i == args.trace_index:
            return u, t, ret, ExtractedStrategy(node, t, u, result.valuation)
    raise UsageError(f"trace index {args.trace_index} out of range")


def cmd_game(args) -> int:
    picked = _strategy_on_trace(args)
    if picked is None:
        return 1
    u, t, ret, strat = picked
    lines = [f"trace {args.trace_index} length={len(t)} "
             f"returning={'yes' if ret else 'no'}"]
    lines.extend(trace_to_lines(t))
    lines.append("")
    check = check_winning_strategy(strat, t, strat.spec, u, budget=args.budget)
    if check.play:
        lines.append("replay:")
        lines.extend(replay_lines(check.play, t, strat.spec, u))
    else:
        lines.append("replay: no winning initial state (vacuous game)")
    lines.append("")
    lines.append(f"strategy check: {check.verdict} ({check.reason})")
    _write_out("\n".join(lines), args.output)
    if check.verdict == "unknown":
        return 3
    return 0 if check else 1


def cmd_solve(args) -> int:
    picked = _strategy_on_trace(args)
    if picked is None:
        return 1
    u, t, _, strat = picked
    verdict = solve_eve(t, strat.spec, u, budget=args.budget)
    if verdict == "unknown":
        _write_out("solver verdict: unknown (budget exceeded)", args.output)
        return 3
    if isinstance(verdict, NoWin):
        _write_out("solver verdict: no winning strategy\ncounterexample initial: "
                   + sep_state_to_text(verdict.counterexample), args.output)
        return 1
    n = len(verdict.initials)
    if n == 0:
        _write_out("solver verdict: vacuous (no initial refinement)", args.output)
        return 1
    _write_out(f"solver verdict: winning strategy found ({n} initial states)",
               args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepgame",
        description="Trace semantics, proof checking and separation games "
                    "for a concurrent while-language.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, proof=False, program=False):
        if program:
            p.add_argument("program", help="program file")
        if proof:
            p.add_argument("proof", help="proof script")
        p.add_argument("-u", "--universe", required=True, help="universe config")
        if program:
            p.add_argument("--maxlen", type=int, default=None,
                           help="override the universe's trace length bound")
        p.add_argument("--output", default=None, help="write output to a file")

    p = sub.add_parser("run", help="enumerate the traces of a program")
    common(p, program=True)
    p.add_argument("--max-traces", type=int, default=None)
    p.add_argument("--init", default=None,
                   help="single initial logical state, e.g. '{x=0@1|}'")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check", help="check a proof script")
    common(p, proof=True)
    p.add_argument("--allow-extensions", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="verify a proven program end to end")
    common(p, program=True, proof=True)
    p.add_argument("--allow-extensions", action="store_true")
    p.add_argument("--inits", default=None,
                   help="file of initial logical states, one per line")
    p.add_argument("--emit-replays", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("game", help="replay the extracted strategy on a trace")
    common(p, program=True, proof=True)
    p.add_argument("--allow-extensions", action="store_true")
    p.add_argument("--trace-index", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("solve", help="search for a winning strategy directly")
    common(p, program=True, proof=True)
    p.add_argument("--allow-extensions", action="store_true")
    p.add_argument("--trace-index", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="most solver nodes to explore; one node is one position "
                        "with one code fragment and set of code-held locks")
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option in ("maxlen", "max_traces", "budget"):
            if getattr(args, option, None) is not None and getattr(args, option) < 0:
                raise UsageError(f"--{option.replace('_', '-')} must be >= 0")
        return args.func(args)
    except (UsageError, ParseError) as exc:
        print(f"sepgame: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failure class of a layer no verb loaded cannot have been raised
        bound = globals()
        for name, (code, opening) in _FAILURES.items():
            if name in bound and isinstance(exc, bound[name]):
                print(f"sepgame: {opening}{exc}", file=sys.stderr)
                return code
        raise


def process_main() -> int:
    """`main` on the process's arguments, then a frozen heap: the verdict is
    written (stdout flushed, an --output file closed) by the time `main`
    returns, and the collections at exit pass over no object alive now."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
