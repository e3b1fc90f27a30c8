"""Per-layer tracing from outside the program.

The tracer wraps refa's public functions at every module binding of them
(``elimination`` imports ``measures`` and the ``digraphs`` functions by
name, ``digraphs`` imports ``minimize``), records one span per call, and
restores the originals when it is removed.  Spans stay in memory and are
written as JSONL at the end.

Self-recursive functions get a span on their outermost call only: while
it runs, the function's own module binding points back at the original,
so inner calls add no frames and are neither counted nor timed apart.
Work the tracer does for its counters runs on a paused clock, so that
span times exclude it.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

LAYERS = {
    "expressions": ("parse", "render", "measures"),
    "constructions": (
        "construct_of",
        "construct_follow",
        "construct_position",
        "construct_pd",
        "construct_brzozowski",
        "derivative",
        "partial_derivatives",
    ),
    "automata": (
        "load",
        "to_dict",
        "remove_lambda",
        "subset_construction",
        "minimize",
        "equivalent",
        "distinguishing_word",
    ),
    "elimination": (
        "make_ordering",
        "augment",
        "eliminate_state",
        "simplify",
        "arden_solve",
        "mcnaughton_yamada",
    ),
    "digraphs": (
        "underlying_digraph",
        "cycle_rank",
        "cycle_rank_upper",
        "star_height_bideterministic",
        "independent_set",
        "cycles_through",
    ),
    "cli": ("main",),
}
SELF_RECURSIVE = {"measures", "simplify", "partial_derivatives"}
STATES_OF_RESULT = {
    "construct_of",
    "construct_follow",
    "construct_position",
    "construct_pd",
    "construct_brzozowski",
    "subset_construction",
    "minimize",
}
FUNCTIONS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in FUNCTIONS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name.split(".")[1] in STATES_OF_RESULT:
            out.append((f"{name}.states", "count", "lower"))
    out.append(("elimination.eliminate_state.awidth", "count", "lower"))
    out.append(("digraphs.cycle_rank.budget_refusals", "count", "lower"))
    for mod in LAYERS:
        out.append((f"{mod}.self_s", "s", "lower"))
        out.append((f"{mod}.share", "ratio", "lower"))
    out.append(("trace.overhead", "ratio", "lower"))
    out.append(("trace.coverage", "ratio", "higher"))
    return out


def _awidth(labels) -> int:
    """Symbol occurrences over all labels of an extended automaton."""
    memo: dict[int, int] = {}
    total = 0
    for _, expr in labels:
        stack = [(expr, False)]
        while stack:
            node, done = stack.pop()
            if id(node) in memo:
                continue
            kids = [getattr(node, k) for k in ("left", "right", "inner") if hasattr(node, k)]
            if done or not kids:
                memo[id(node)] = sum(memo[id(k)] for k in kids) + (type(node).__name__ == "Sym")
                continue
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in memo)
        total += memo[id(expr)]
    return total


class Tracer:
    def __init__(self, refa_modules: dict):
        self.modules = refa_modules
        self.index = {name: i for i, name in enumerate(FUNCTIONS)}
        n = len(FUNCTIONS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.states = [0] * n
        self.awidth = 0
        self.refusals = 0
        self.case = -1
        self.paused_ns = 0
        self.stack: list[list] = []  # [function index, start, child time, span id]
        self.spans = {k: array("q") for k in ("id", "fn", "start", "end", "parent", "case")}
        self.next_span = 0
        self._restore: list[tuple] = []

    def clock(self) -> int:
        """Monotonic nanoseconds with the tracer's own bookkeeping taken out."""
        return time.perf_counter_ns() - self.paused_ns

    def install(self):
        budget_error = self.modules["digraphs"].CycleRankBudgetError
        for mod_name, fns in LAYERS.items():
            home = self.modules[mod_name]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, home, f"{mod_name}.{fn_name}", budget_error)
                for module in self.modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, home, name: str, budget_error):
        idx = self.index[name]
        short = name.split(".")[1]
        recursive = short in SELF_RECURSIVE
        count_states = short in STATES_OF_RESULT
        is_elimination_step = name == "elimination.eliminate_state"
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[idx] += 1
            if recursive:
                setattr(home, short, fn)
            stack = tracer.stack
            parent = stack[-1][3] if stack else -1
            span_id = tracer.next_span
            tracer.next_span += 1
            frame = [idx, tracer.clock(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                tracer.refusals += 1
                raise
            finally:
                end = tracer.clock()
                stack.pop()
                if recursive:
                    setattr(home, short, wrapper)
                duration = end - frame[1]
                tracer.self_ns[idx] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans = tracer.spans
                spans["id"].append(span_id)
                spans["fn"].append(idx)
                spans["start"].append(frame[1])
                spans["end"].append(end)
                spans["parent"].append(parent)
                spans["case"].append(tracer.case)
            if count_states:
                tracer.states[idx] += len(result.states)
            elif is_elimination_step:
                paused = time.perf_counter_ns()
                tracer.awidth += _awidth(result.labels)
                tracer.paused_ns += time.perf_counter_ns() - paused
            return result

        return wrapper

    def write_jsonl(self, path: Path, case_ids: list[str]):
        """One header line with the case ids, then one line per span; a
        span's ``case`` indexes the header's list."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"case_ids": case_ids}) + "\n")
            for i in range(len(s["fn"])):
                fh.write(json.dumps({
                    "id": s["id"][i],
                    "name": FUNCTIONS[s["fn"][i]],
                    "start_ns": s["start"][i],
                    "end_ns": s["end"][i],
                    "parent": s["parent"][i],
                    "case": s["case"][i],
                }, separators=(",", ":")) + "\n")

    def metrics(self, traced_pass_ns: int, untraced_pass_ns: float, traced_wall_ns: int) -> dict:
        """Per-layer metrics of one traced pass."""
        out: dict[str, float] = {}
        per_module: dict[str, int] = {mod: 0 for mod in LAYERS}
        for i, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_ns[i] / 1e9
            if name.split(".")[1] in STATES_OF_RESULT:
                out[f"{name}.states"] = self.states[i]
            per_module[name.split(".")[0]] += self.self_ns[i]
        out["elimination.eliminate_state.awidth"] = self.awidth
        out["digraphs.cycle_rank.budget_refusals"] = self.refusals
        for mod, ns in per_module.items():
            out[f"{mod}.self_s"] = ns / 1e9
            out[f"{mod}.share"] = ns / traced_pass_ns
        out["trace.overhead"] = traced_wall_ns / untraced_pass_ns
        out["trace.coverage"] = sum(per_module.values()) / traced_pass_ns
        return out
