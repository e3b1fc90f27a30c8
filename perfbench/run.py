"""End-to-end benchmark of the refa CLI, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one caller, one thread, one process; the
next case starts only when ``refa.cli.main`` has returned from the
previous one.  A case is one CLI invocation, made in-process with an argv
list and its stdout captured.

With ``--trace 0`` the cases run in passes for ``--seconds`` seconds (at
least MIN_PASSES); each case's latency is its median over the passes, and
the end-to-end metrics are taken over those.  With ``--trace 1`` the cases
run untraced, then once with every layer wrapped, and the per-layer
metrics come from that traced pass.  Outputs are checked after timing
against an oracle that shares no code with refa (``oracle.py``).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Times are reported at a reference machine speed.  On a shared machine
(measured in a 2-core container, CPython 3.11) the speed of all Python code
drifts by 20-40 % over tens of seconds, and a per-run median cannot remove
that.  So a short calibration round (``calibrate``, pure Python, no refa)
runs after every unit of cases, outside the timed cases, and each case's
latency is scaled by CALIBRATION_REF_NS over the median calibration time of
the units around it.  Over five corpus passes in separate processes raw
pass time ranged from 2.8 to 5.0 s and scaled pass time from 4.6 to 5.2 s.
Raw figures are printed alongside.

Probes (hostile inputs, the deep rung of ``scale`` and reproductions of
known defects) run once after the timed passes: they print in the report
and count in ``error_rate``, but not in the JSON's ``attempted`` and
``failed``, which cover the timed cases.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 7
MIN_PASSES = 3
UNTRACED_PASSES_IN_TRACE = 2
TAIL_BEYOND = 10
CALIBRATION_REF_NS = 200_000  # one calibrate() round on the reference machine
CALIBRATION_WINDOW = 20  # units on either side whose samples set a unit's speed
END_TO_END = {
    "cases_per_s": "cases/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "peak_mem_mb": "MB",
    "setup_s": "s",
    "result_size": "count",
}

import checks  # noqa: E402  (sibling modules of this script)
import layers  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    """Import refa from this checkout's sources, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "refa" or m.startswith("refa.")]:
        del sys.modules[name]
    refa = importlib.import_module("refa")
    importlib.import_module("refa.cli")
    return refa


def _calibration_round():
    table = {}
    for i in range(300):
        key = (i, str(i), frozenset((i, i + 1)))
        table[key] = [key, len(key[1])]
    sorted(table, key=lambda k: k[1])


def calibrate() -> int:
    """Nanoseconds of a fixed round of allocation-heavy pure-Python work.

    The collector is paused during the round, so that its time depends on
    the machine's speed and not on garbage a case left behind.
    """
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _calibration_round()
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def machine_scale(samples: list[int]) -> float:
    """Factor that brings times taken at this speed to the reference speed."""
    return CALIBRATION_REF_NS / statistics.median(samples)


def set_up(name: str, seed: int):
    """Import refa, generate the inputs and write the input files, SETUPS times.

    Returns the set-up times in seconds, raw and scaled by calibration
    rounds run right after each set-up.
    """
    raw, scaled = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        refa = fresh_import()
        workload = workloads.build(name, seed, refa, OUT / name, ROOT)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * machine_scale([calibrate() for _ in range(5)]))
    return refa, workload, raw, scaled


def execute(cli, case, prev: checks.Outcome | None, clock) -> tuple[int, checks.Outcome]:
    argv = case.argv(prev.stdout if prev else "") if callable(case.argv) else case.argv
    if case.output_file is not None:
        (ROOT / case.output_file).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        try:
            rc = cli.main(argv)
        except Exception as e:  # a traceback is a failed case, not a failed benchmark
            rc, exc = None, type(e).__name__
        elapsed = clock() - start
    outcome = checks.Outcome(rc, out.getvalue(), err.getvalue(), exc)
    if case.output_file is not None:
        path = ROOT / case.output_file
        outcome.file_text = path.read_text(encoding="utf-8") if path.exists() else None
    return elapsed, outcome


class Pass:
    """Latencies and outcomes of one pass over every case, in case order."""

    def __init__(self):
        self.latencies: list[int] = []
        self.outcomes: list[checks.Outcome] = []
        self.unit_of_case: list[int] = []
        self.calibration: list[int] = []  # one sample after each unit

    def scaled(self) -> list[float]:
        """Latencies at reference machine speed."""
        cal = self.calibration
        scale = []
        for u in range(len(cal)):
            scale.append(machine_scale(cal[max(0, u - CALIBRATION_WINDOW):u + CALIBRATION_WINDOW + 1]))
        return [lat * scale[u] for lat, u in zip(self.latencies, self.unit_of_case)]


def run_pass(cli, workload, clock, on_case=None) -> Pass:
    """Run every case once.  Each case starts from a heap without garbage,
    as a CLI process does, so that its collections and its memory do not
    depend on the cases before it; the objects that exist when the pass
    starts are frozen out of the collector's work."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    result = Pass()
    for u, unit in enumerate(workload.units):
        prev = None
        for case in unit:
            if on_case is not None:
                on_case(len(result.outcomes))
            elapsed, prev = execute(cli, case, prev, clock)
            gc.collect()
            result.latencies.append(elapsed)
            result.outcomes.append(prev)
            result.unit_of_case.append(u)
        result.calibration.append(calibrate())
    gc.unfreeze()
    return result


def fingerprint(o: checks.Outcome) -> int:
    return hash((o.rc, o.exc, o.stdout, o.file_text))


def verdict(case, o: checks.Outcome) -> str | None:
    """None when the case succeeded, else why it failed."""
    if o.exc is not None:
        return f"traceback ({o.exc})"
    if o.rc != case.expect_rc:
        return f"exit code {o.rc}, expected {case.expect_rc}"
    try:
        return case.check(o)
    except Exception as e:  # malformed output the check could not read
        return f"unreadable output ({type(e).__name__}: {e})"


def digest(cases, outcomes) -> str:
    h = hashlib.sha256()
    for case, o in sorted(zip(cases, outcomes), key=lambda pair: pair[0].cid):
        h.update(f"{case.cid}\0{o.rc}\0{o.exc}\0{o.stdout}\0{o.file_text}\0".encode())
    return h.hexdigest()


def tail(latencies: list[int]) -> int:
    """Latency with exactly TAIL_BEYOND cases above it."""
    return sorted(latencies)[max(0, len(latencies) - TAIL_BEYOND - 1)]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report_line(name: str, value: float, unit: str, note: str = ""):
    print(f"  {name:<14} {value:>14.6g} {unit:<8} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "refa" / "__init__.py").is_file():
        print(f"perfbench: no refa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    refa, workload, setup_raw, setup_scaled = set_up(args.workload, args.seed)
    if Path(refa.__file__).resolve().parent != ROOT / "src" / "refa":
        print(f"perfbench: imported refa from {refa.__file__}, not this checkout", file=sys.stderr)
        return 2
    cases = workload.cases
    n = len(cases)
    print(f"workload {args.workload}  seed {args.seed}  cases/pass {n}  "
          f"python {platform.python_version()}  cores {os.cpu_count()}  trace {args.trace}")

    passes: list[Pass] = []
    timed_start = time.perf_counter()
    wanted = UNTRACED_PASSES_IN_TRACE if args.trace else None
    while True:
        # every pass starts from a fresh import, as a new CLI process would,
        # so that no module-level cache of refa carries over between passes
        refa = fresh_import()
        passes.append(run_pass(refa.cli, workload, time.perf_counter_ns))
        if len(passes) == 1:
            # later passes only add allocator fragmentation, and their number
            # depends on machine speed
            peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - timed_start
        if wanted is not None:
            if len(passes) >= wanted:
                break
        elif len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
            break

    traced = None
    if args.trace:
        refa = fresh_import()
        tracer = layers.Tracer({name: getattr(refa, name) for name in layers.LAYERS})
        tracer.install()
        try:
            traced = run_pass(refa.cli, workload, tracer.clock, on_case=lambda i: setattr(tracer, "case", i))
        finally:
            tracer.remove()

    first = passes[0].outcomes
    prints = [[fingerprint(o) for o in p.outcomes] for p in passes + ([traced] if traced else [])]
    reasons = [verdict(case, o) for case, o in zip(cases, first)]
    for p, fp in enumerate(prints[1:], start=2):
        for i in range(n):
            if reasons[i] is None and fp[i] != prints[0][i]:
                reasons[i] = f"output of pass {p} differs from pass 1"
    failed = sum(r is not None for r in reasons) * len(prints)
    result_size = sum(case.size(o) for case, o, r in zip(cases, first, reasons) if r is None)

    probe_reasons = []
    for case in workload.probes:
        _, o = execute(refa.cli, case, None, time.perf_counter_ns)
        probe_reasons.append(verdict(case, o))
    errors = sum(r is not None for r in reasons) + sum(r is not None for r in probe_reasons)
    error_rate = errors / (n + len(workload.probes))

    print(f"  digest {digest(cases, first)}  (sha256 of every case's exit code and output, by case id)")
    for case, r in list(zip(cases, reasons)) + list(zip(workload.probes, probe_reasons)):
        if r is not None:
            print(f"  FAIL {case.cid}: {r}")
    for case, r in zip(workload.probes, probe_reasons):
        if r is None:
            print(f"  probe ok {case.cid}")

    if traced is None:
        good = n - sum(r is not None for r in reasons)
        metrics = end_to_end(passes, good, setup_raw, setup_scaled, peak_mem_mb, result_size, error_rate)
    else:
        # raw times of the traced pass and the untraced pass just before it
        untraced = sum(passes[-1].latencies)
        metrics = per_layer(tracer, sum(traced.latencies), untraced, sum(traced.latencies) + tracer.paused_ns)
        trace_path = OUT / args.workload / "trace.jsonl"
        tracer.write_jsonl(trace_path, [c.cid for c in cases])
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n * len(prints),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def latency_metrics(per_pass_latencies: list[list[float]], good: int) -> dict[str, float]:
    """cases_per_s, case_p50_ms and case_tail_ms from each case's median over passes."""
    n = len(per_pass_latencies[0])
    per_case = [statistics.median(p[i] for p in per_pass_latencies) for i in range(n)]
    return {
        "cases_per_s": good / (sum(per_case) / 1e9),
        "case_p50_ms": statistics.median(per_case) / 1e6,
        "case_tail_ms": tail(per_case) / 1e6,
    }


def end_to_end(passes, good, setup_raw, setup_scaled, peak_mem_mb, result_size, error_rate) -> dict:
    n = len(passes[0].latencies)
    scaled = latency_metrics([p.scaled() for p in passes], good)
    raw = latency_metrics([p.latencies for p in passes], good)
    per_pass = [latency_metrics([p.scaled()], good) for p in passes]
    scaled["setup_s"] = statistics.median(setup_scaled)
    raw["setup_s"] = statistics.median(setup_raw)
    notes = {
        "cases_per_s": "cases that completed correctly per second of pass",
        "case_p50_ms": "median latency of one case",
        "case_tail_ms": f"p{100 * (n - TAIL_BEYOND) / n:.2f}: {TAIL_BEYOND} of {n} cases beyond",
        "setup_s": f"import, generate and write inputs; median of {len(setup_raw)}, each scaled by "
                   "calibration rounds run right after it",
    }
    print(f"  end to end over {len(passes)} passes, at reference machine speed; each case "
          f"at its median over passes; q1/q3 over passes; raw = unscaled")
    metrics = {}
    for name, unit in END_TO_END.items():
        if name in scaled:
            value = scaled[name]
            lo, hi = quartiles([m[name] for m in per_pass] if name != "setup_s" else setup_scaled)
            note = f"{notes[name]}; q1 {lo:.6g} q3 {hi:.6g}; raw {raw[name]:.6g}"
        elif name == "peak_mem_mb":
            value, note = peak_mem_mb, "peak resident set of the process after set-up and one pass"
        else:
            value, note = result_size, "states+transitions, awidth, or rank, summed over one pass"
        report_line(name, value, unit, note)
        metrics[name] = {"value": value, "unit": unit}
    report_line("error_rate", error_rate, "ratio", "failed cases and probes / cases per pass and probes")
    return metrics


def per_layer(tracer, traced_ns, untraced_ns, traced_wall) -> dict:
    values = tracer.metrics(traced_ns, untraced_ns, traced_wall)
    print(f"  per layer, one traced pass of {traced_ns / 1e9:.3f} s "
          f"(the untraced pass before it: {untraced_ns / 1e9:.3f} s)")
    print(f"  {'function':<42} {'calls':>9} {'self_s':>10} {'share':>7} {'states':>9}")
    for name in layers.FUNCTIONS:
        calls = values[f"{name}.calls"]
        if calls:
            states = values.get(f"{name}.states", "")
            print(f"  {name:<42} {calls:>9} {values[f'{name}.self_s']:>10.4f} "
                  f"{values[f'{name}.self_s'] * 1e9 / traced_ns:>7.1%} {states:>9}")
    for mod in layers.LAYERS:
        print(f"  {mod + ' (module)':<42} {'':>9} {values[f'{mod}.self_s']:>10.4f} {values[f'{mod}.share']:>7.1%}")
    print(f"  eliminate_state awidth {values['elimination.eliminate_state.awidth']}  "
          f"cycle_rank budget refusals {values['digraphs.cycle_rank.budget_refusals']}")
    print(f"  trace.overhead {values['trace.overhead']:.3f}  trace.coverage {values['trace.coverage']:.4f}")
    units = {name: unit for name, unit, _ in layers.metric_names()}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
