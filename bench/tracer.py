"""Per-layer tracing of one sepgame run, in the process that does the work.

    python bench/tracer.py --out DIR cli  <sepgame CLI arguments>
    python bench/tracer.py --out DIR chain <bench/chain.py arguments>

Before the run, the public functions of each layer are replaced, at the module
attribute their caller looks up, by wrappers that record spans (name, start,
end, parent) and counts in memory.  Nothing inside ``src/`` changes.  At exit
the spans go to ``DIR/spans.bin`` (int64 quadruples: name index, start ns,
end ns, parent span index or -1) and the aggregates to ``DIR/trace.json``;
the program's own output and exit code are those of the untraced run.

A span of a generator covers one ``next()`` call, so a consumer's work
between items is not charged to the generator.  Self time is a span's
duration minus the part its child spans cover, summed per span name.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array

MAX_SPANS = 2_000_000     # spans kept for spans.bin; later ones are only aggregated

# Span name -> the (module, attribute) places where callers look it up.
# Each span name starts with the layer it is charged to.
FUNCTION_SPANS = {
    "syntax.parse": [("sepgame.cli", "parse_universe"), ("sepgame.cli", "parse_program"),
                     ("sepgame.cli", "parse_proof"), ("sepgame.syntax", "parse_universe"),
                     ("sepgame.syntax", "parse_program"), ("sepgame.syntax", "parse_proof")],
    "proof.check_proof": [("sepgame.cli", "check_proof"), ("sepgame.proof", "check_proof")],
    "logic.entails": [("sepgame.proof", "entails")],
    "logic.is_precise": [("sepgame.proof", "is_precise")],
    "logic.satisfies": [("sepgame.cli", "satisfies"), ("sepgame.game", "satisfies"),
                        ("sepgame.soundness", "satisfies"), ("sepgame.logic", "satisfies")],
    "logic.all_logical_states": [("sepgame.cli", "all_logical_states"),
                                 ("sepgame.logic", "all_logical_states")],
    "logic.substates": [("sepgame.soundness", "substates")],
    "traces.format": [("sepgame.cli", "trace_to_lines")],
    "game.empty_winning_plays": [("sepgame.soundness", "empty_winning_plays"),
                                 ("sepgame.game", "empty_winning_plays")],
    "game.adam_extensions": [("sepgame.soundness", "adam_extensions"),
                             ("sepgame.game", "adam_extensions")],
    "game.check_winning_strategy": [("sepgame.cli", "check_winning_strategy"),
                                    ("sepgame.game", "check_winning_strategy")],
    "game.solve_eve": [("sepgame.cli", "solve_eve"), ("sepgame.game", "solve_eve")],
    "soundness.drive_play": [("sepgame.cli", "drive_play"), ("sepgame.soundness", "drive_play")],
    "soundness.verify_corollary": [("sepgame.cli", "verify_corollary")],
    "soundness.extract": [("sepgame.soundness:ExtractedStrategy", "__init__")],
    "soundness.respond": [("sepgame.soundness:ExtractedStrategy", "respond")],
    "cli.select_inits": [("sepgame.cli", "_full_perm_inits"),
                         ("sepgame.cli", "_full_perm_machine_states")],
    "cli.write_output": [("sepgame.cli", "_write_out")],
}

GENERATOR_SPANS = {
    "semantics.enumerate": [("sepgame.cli", "enumerate_traces"),
                            ("sepgame.soundness", "enumerate_traces"),
                            ("sepgame.semantics", "enumerate_traces")],
    "separation.component_assignments": [("sepgame.game", "component_assignments"),
                                         ("sepgame.separation", "component_assignments")],
    "separation.enumerate_eve_moves": [("sepgame.game", "enumerate_eve_moves")],
}

# Counter name -> (module, lru_cache'd function, cache_info field); read at exit.
CACHE_COUNTERS = {
    "logic.sat_cache_misses": ("sepgame.logic", "_sat", "misses"),
    "logic.sat_cache_size": ("sepgame.logic", "_sat", "currsize"),
    "logic.sub_pairs_cache_misses": ("sepgame.logic", "_sub_pairs", "misses"),
    "game.refinements_cache_misses": ("sepgame.game", "_refinements", "misses"),
}


def _resolve(place):
    """The object holding the attribute: a module, or a class in one."""
    modname, _, clsname = place.partition(":")
    try:
        obj = importlib.import_module(modname)
    except ImportError:
        return None
    return getattr(obj, clsname, None) if clsname else obj


class Tracer:
    """Spans and counters of one run, kept in memory until write()."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = []
        self.self_ns = []
        self.total_ns = []
        self.counts = {}
        self.spans = array("q")
        self.dropped = 0
        self.root_ns = 0
        self.stack = []          # frames: [span index or -1, start ns, child ns]
        self.originals = {}

    def _name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return self.ids[name]

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _spanned(self, nid, call):
        """Run call() inside a span; return its result."""
        stack, spans = self.stack, self.spans
        parent = stack[-1][0] if stack else -1
        if len(spans) < 4 * MAX_SPANS:
            index = len(spans) >> 2
            spans.extend((nid, 0, 0, parent))
        else:
            index = -1
            self.dropped += 1
        frame = [index, 0, 0]
        stack.append(frame)
        frame[1] = start = time.perf_counter_ns()
        try:
            return call()
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            if index >= 0:
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end
            self.calls[nid] += 1
            self.self_ns[nid] += dur - frame[2]
            self.total_ns[nid] += dur
            if stack:
                stack[-1][2] += dur
            else:
                self.root_ns += dur

    def span_function(self, name, fn):
        nid = self._name_id(name)
        spanned = self._spanned

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return spanned(nid, lambda: fn(*args, **kwargs))
        return wrapper

    def span_generator(self, name, fn):
        nid = self._name_id(name)
        spanned, count = self._spanned, self.count
        done = object()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(name + ".invocations")
            it = fn(*args, **kwargs)
            while True:
                item = spanned(nid, lambda: next(it, done))
                if item is done:
                    return
                count(name + ".yields")
                yield item
        return wrapper

    def patch(self, place, attr, make):
        """Replace place.attr by make(original); skip places that are gone."""
        owner = _resolve(place)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is not None:
            self.originals.setdefault((place, attr), fn)
            setattr(owner, attr, make(fn))

    def install(self):
        for name, places in FUNCTION_SPANS.items():
            for place, attr in places:
                self.patch(place, attr, functools.partial(self.span_function, name))
        for name, places in GENERATOR_SPANS.items():
            for place, attr in places:
                self.patch(place, attr, functools.partial(self.span_generator, name))
        self._install_counters()

    def _install_counters(self):
        """Count-only wrappers and result inspection, outside the span table."""
        count = self.count

        def counting(name):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    count(name)
                    return fn(*args, **kwargs)
                return wrapper
            return make

        self.patch("sepgame.semantics", "machine_step", counting("semantics.machine_step_calls"))

        def universe_states(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.counts["logic.universe_states"] = max(
                    self.counts.get("logic.universe_states", 0), len(out))
                return out
            return wrapper
        for place, attr in FUNCTION_SPANS["logic.all_logical_states"]:
            self.patch(place, attr, universe_states)

        def root_member(fn):
            """Count member tests on the denotation enumerate_traces asks for;
            nested denote calls (the recursion) get the real object."""
            depth = [0]

            class Root:
                def __init__(self, ts):
                    self.ts = ts

                def member(self, t):
                    count("semantics.root_member_calls")
                    return self.ts.member(t)

            @functools.wraps(fn)
            def wrapper(c, u):
                if depth[0]:
                    return fn(c, u)
                depth[0] += 1
                try:
                    return Root(fn(c, u))
                finally:
                    depth[0] -= 1
            return wrapper
        self.patch("sepgame.semantics", "denote", root_member)

        def refinements(fn):
            """Refinements kept: the results of calls that missed the cache."""
            info = getattr(fn, "cache_info", None)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = info().misses if info else None
                out = fn(*args, **kwargs)
                if info is None or info().misses != before:
                    count("game.refinements_kept", len(out))
                return out
            return wrapper
        self.patch("sepgame.game", "_refinements", refinements)

        def after(name, inspect):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    n = inspect(out, args)
                    if n is not None:
                        count(name, n)
                    return out
                return wrapper
            return make

        def play_nodes(result, _):
            words = getattr(result, "reason", "").split()
            return int(words[1]) if len(words) > 1 and words[1].isdigit() else None

        def solver_nodes(result, _):
            return getattr(result, "_explored", None)

        def initials(_, args):
            return len(getattr(args[0], "initials", ()))

        # Inspection wraps outside the span wrapper, so it is not timed.
        for place, attr in FUNCTION_SPANS["game.check_winning_strategy"]:
            self.patch(place, attr, after("game.play_nodes", play_nodes))
        for place, attr in FUNCTION_SPANS["game.solve_eve"]:
            self.patch(place, attr, after("game.solver_nodes", solver_nodes))
        self.patch("sepgame.soundness:ExtractedStrategy", "__init__",
                   after("soundness.initial_refinements", initials))

    def cache_counters(self):
        """CACHE_COUNTERS values; None where the cache no longer exists."""
        out = {}
        for name, (modname, attr, field) in CACHE_COUNTERS.items():
            fn = self.originals.get((modname, attr)) or getattr(_resolve(modname), attr, None)
            info = getattr(fn, "cache_info", None)
            out[name] = None if info is None else getattr(info(), field, None)
        return out

    def write(self, out_dir, main_ns):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "spans.bin"), "wb") as fh:
            self.spans.tofile(fh)
        per_name = {name: {"calls": self.calls[i], "self_ns": self.self_ns[i],
                           "total_ns": self.total_ns[i]}
                    for i, name in enumerate(self.names)}
        doc = {"names": self.names, "spans": len(self.spans) // 4,
               "spans_dropped": self.dropped, "root_ns": self.root_ns,
               "main_ns": main_ns, "per_name": per_name,
               "counts": dict(sorted(self.counts.items())),
               "caches": self.cache_counters()}
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--out" or argv[2] not in ("cli", "chain"):
        print("usage: tracer.py --out DIR {cli|chain} ARGS...", file=sys.stderr)
        return 2
    out_dir, target, rest = argv[1], argv[2], argv[3:]
    if target == "cli":
        from sepgame import cli
        run = cli.main
    else:
        import chain
        run = chain.main
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter_ns()
    try:
        code = run(rest)
    finally:
        main_ns = time.perf_counter_ns() - start
        sys.stdout.flush()
        tracer.write(out_dir, main_ns)
    return code


if __name__ == "__main__":
    sys.exit(main())
