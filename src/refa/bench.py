"""Benchmark harness: construction sizes per family, elimination orderings.

Records are plain rows, reproducible bit-for-bit from their configuration,
and serialize to a fixed CSV layout.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import astuple, dataclass

from .automata import equivalent, fa_measures
from .constructions import construct, construct_follow, construct_pd, construct_position
from .elimination import STRATEGIES, state_elimination
from .expressions import measures
from .families import gen_family, options_regex, random_dfa, row3_regex

__all__ = [
    "BenchRecord",
    "CSV_HEADER",
    "bench_constructions",
    "bench_orderings",
    "summarize_orderings",
    "verify_trends",
    "to_csv",
]

CSV_HEADER = ["family", "n", "method", "states", "transitions", "size", "awidth", "height", "micros"]

@dataclass(frozen=True)
class BenchRecord:
    family: str
    n: int
    method: str
    states: int
    transitions: int
    size: int
    awidth: int
    height: int
    micros: int

    def row(self) -> list:
        return list(astuple(self))


def to_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(record.row() for record in records)
    return buf.getvalue()


def bench_constructions(families: dict[str, list[int]]) -> list[BenchRecord]:
    """Sizes of the of, follow, pos and pd constructions over expression families.

    `families` maps a family name (buffer/options/row1/row2/row3) to the
    list of parameters to run.  When the quadratic and square-root
    families are present their doubling-ratio checks are asserted too.
    """
    records = []
    for family in sorted(families):
        for n in families[family]:
            expr = gen_family(family, n).regex
            if expr is None:
                raise ValueError(f"family {family} has no expression form")
            report = measures(expr)
            for name in ("of", "follow", "pos", "pd"):
                start = time.perf_counter()
                aut = construct(name, expr)
                micros = int((time.perf_counter() - start) * 1e6)
                fm = fa_measures(aut)
                records.append(
                    BenchRecord(
                        family, n, name, fm.states, fm.transitions, fm.size,
                        report.awidth, report.height, micros,
                    )
                )
    for name, ratio, limit, ok in verify_trends(families):
        if not ok:
            raise AssertionError(f"growth trend {name}: ratio {ratio:.2f} vs {limit}")
    return records


def verify_trends(families: dict[str, list[int]]) -> list[tuple[str, float, float, bool]]:
    """Doubling-ratio checks on the quadratic and pd-vs-position families.

    For each n the position automaton of the option family must grow with
    ratio 4, the pd automaton of the sum-of-tails family with ratio 2 and
    its position automaton with ratio 8, all within ±20%.  Sizes below 8
    are skipped: the tolerance is pinned for the asymptotic regime only.
    """
    checks = []

    def ratio(build, construct, n):
        return fa_measures(construct(build(2 * n))).size / fa_measures(construct(build(n))).size

    for n in families.get("options", []):
        if n < 8:
            continue
        r = ratio(options_regex, construct_position, n)
        checks.append((f"options:pos:n={n}", r, 4.0, abs(r - 4.0) <= 0.8))
    for n in families.get("row3", []):
        if n < 8:
            continue
        r = ratio(row3_regex, construct_pd, n)
        checks.append((f"row3:pd:n={n}", r, 2.0, abs(r - 2.0) <= 0.4))
        r = ratio(row3_regex, construct_position, n)
        checks.append((f"row3:pos:n={n}", r, 8.0, abs(r - 8.0) <= 1.6))
    return checks


def bench_orderings(n: int, alphabet_size: int, samples: int, seed: int) -> list[BenchRecord]:
    """Expression sizes of every strategy in `STRATEGIES` on each sample
    `random<i>` = `random_dfa(n, alphabet_size, seed + i)`, i < samples, in
    the sorted order of those names (random0, random1, random10, ...,
    random2); every expression is checked equivalent to its automaton.
    """
    records = []
    for i in sorted(range(samples), key=str):
        name, aut = f"random{i}", random_dfa(n, alphabet_size, seed + i)
        fm = fa_measures(aut)
        for strategy in STRATEGIES:
            start = time.perf_counter()
            expr = state_elimination(aut, strategy)
            micros = int((time.perf_counter() - start) * 1e6)
            if not equivalent(construct_follow(expr), aut):
                raise AssertionError(f"{strategy} produced an inequivalent expression on {name}")
            report = measures(expr)
            records.append(
                BenchRecord(
                    name, fm.states, strategy, fm.states, fm.transitions, fm.size,
                    report.awidth, report.height, micros,
                )
            )
    return records


def summarize_orderings(records: list[BenchRecord]) -> list[tuple[str, float]]:
    """Median result awidth per strategy, best first."""
    # imported here: with fractions and decimal it adds 3 ms to every CLI start
    import statistics

    by_method: dict[str, list[int]] = {}
    for record in records:
        by_method.setdefault(record.method, []).append(record.awidth)
    medians = [(method, float(statistics.median(widths))) for method, widths in by_method.items()]
    return sorted(medians, key=lambda pair: (pair[1], pair[0]))
