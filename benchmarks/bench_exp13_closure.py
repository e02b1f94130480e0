"""EXP-13 — the batched ``delta`` closure against the ``naive`` reference.

Measures the Datalog closure's inline batched derivation
(``engine="delta"``: each round instantiates the heads of every
delta-pivoted body match straight from the matcher's raw bindings — no
trigger objects, no trigger identity, no canonical sort) against the
``naive`` engine, which re-derives every round from the whole instance,
on the EXP-12-scale workload: the transitive closure of a 60-path
(~1.8k atoms over ~7 semi-naive rounds), plus the cross-engine equality
guarantee.

The acceptance bar is the matcher work, not the wall-clock: the batched
closure tests exactly 46 136 candidate atoms on this workload.  The
count is deterministic and hardware-independent, so a change to the
derivation or the matcher that does more (or less) work fails here
exactly; wall-clock medians of three runs are report-only.
"""

import statistics
import time

from conftest import emit
from repro.corpus import path_instance
from repro.io import format_table
from repro.logic import MATCHER_STATS
from repro.rewriting.datalog import semi_naive_closure
from repro.rules import parse_rules

N = 60
MAX_ROUNDS = 24
TRIALS = 3

TRANSITIVITY = "E(x,y), E(y,z) -> E(x,z)"

#: Matcher candidates the batched ``delta`` closure tests on the 60-path.
DELTA_CANDIDATES = 46_136


def _run(engine):
    start = time.perf_counter()
    closure = semi_naive_closure(
        path_instance(N), parse_rules(TRANSITIVITY), max_rounds=MAX_ROUNDS,
        engine=engine,
    )
    return closure, time.perf_counter() - start


def _measure(engine):
    """Median wall-clock of TRIALS runs plus one run's matcher counters."""
    times = []
    closure = None
    for _ in range(TRIALS):
        MATCHER_STATS.reset()
        closure, elapsed = _run(engine)
        times.append(elapsed)
    return closure, statistics.median(times), MATCHER_STATS.candidates


def test_exp13_batched_closure(benchmark):
    rows = []
    results, times, candidates = {}, {}, {}
    for engine in ("delta", "naive"):
        closure, median_s, tested = _measure(engine)
        results[engine], times[engine] = closure, median_s
        candidates[engine] = tested
    for engine in ("delta", "naive"):
        rows.append(
            (
                engine,
                len(results[engine]),
                candidates[engine],
                f"{times[engine]:.3f}",
                f"{times['naive'] / times[engine]:.1f}x",
            )
        )
    assert results["delta"] == results["naive"]  # same fixpoint

    atoms = benchmark.pedantic(
        lambda: len(_run("delta")[0]),
        rounds=3,
        iterations=1,
    )
    emit(
        "exp13_closure",
        format_table(
            ["engine", "atoms", "candidates", "median s", "vs naive"],
            rows,
            title=(
                f"EXP-13: batched delta closure vs naive re-derivation, "
                f"{N}-path Datalog closure"
            ),
        ),
    )
    assert atoms == len(results["delta"])
    # The acceptance bar: the exact matcher work of the batched closure.
    assert candidates["delta"] == DELTA_CANDIDATES, candidates
    assert candidates["naive"] > candidates["delta"], candidates
