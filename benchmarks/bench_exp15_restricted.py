"""EXP-15 — delta-driven restricted satisfaction and sharded firing.

The restricted chase historically forced *interleaved* firing: every
trigger was satisfaction-checked against the growing instance, then
instantiated and recorded one at a time (`record_application` per
trigger).  The unified runner lets the restricted policy choose per
round: when every trigger of a round has an existential-free rule head,
satisfaction is gated against a per-round witness overlay (membership in
``instance ∪ overlay``), the whole round records through one amortized
``record_round`` pass, and on process backends head instantiation fans
out across the pool.

This experiment measures that gate on restricted Datalog saturations —
the transitive closure of a path and of a tournament, the workloads where
every round qualifies — against the seed interleaved path
(``delta_satisfaction=False``, bit-identical by construction and asserted
here).

Acceptance on this 1-CPU GIL harness:

* every configuration produces a bit-identical ``ChaseResult`` (atoms,
  provenance records, levels),
* the delta-gated batched path does not regress vs the seed interleaved
  path (the amortized recording is the single-core win), and
* the sharded persistent path agrees exactly while fanning firing out
  (its wall-clock win needs multicore; equivalence is the claim here).
"""

import statistics
import time

from conftest import emit
from repro.chase import restricted_chase
from repro.corpus import path_instance
from repro.corpus.generators import tournament_instance
from repro.engine import EngineConfig
from repro.io import format_table
from repro.rules.parser import parse_rules

PATH_N = 80
TOURNAMENT_N = 13
MAX_ROUNDS = 30
TRIALS = 3

TRANSITIVITY = "E(x,y), E(y,z) -> E(x,z)"

#: (label, engine, delta_satisfaction) — the seed interleaved path first.
CONFIGS = [
    ("interleaved (seed path)", "delta", False),
    ("delta-gated batched", "delta", True),
    ("persistent sharded (w=2)", EngineConfig("persistent", workers=2), True),
]


def _measure(run):
    times, result = [], None
    for _ in range(TRIALS):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def _assert_bit_identical(a, b):
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert a.records() == b.records()


def _sweep(make_instance, rules):
    rows, results, times = [], {}, {}
    for label, engine, gate in CONFIGS:
        result, median_s = _measure(
            lambda: restricted_chase(
                make_instance(),
                rules,
                max_rounds=MAX_ROUNDS,
                engine=engine,
                delta_satisfaction=gate,
            )
        )
        results[label] = result
        times[label] = median_s
        rows.append(
            (
                label,
                len(result.instance),
                result.levels_completed,
                f"{median_s:.3f}",
            )
        )
    reference = results["interleaved (seed path)"]
    assert reference.terminated
    for result in results.values():
        _assert_bit_identical(result, reference)
    return rows, times


def test_exp15_restricted_path(benchmark):
    rules = parse_rules(TRANSITIVITY)
    rows, times = _sweep(lambda: path_instance(PATH_N), rules)
    atoms = benchmark.pedantic(
        lambda: len(
            restricted_chase(
                path_instance(PATH_N), rules, max_rounds=MAX_ROUNDS
            ).instance
        ),
        rounds=3,
        iterations=1,
    )
    emit(
        "exp15_restricted",
        format_table(
            ["configuration", "atoms", "rounds", "median s"],
            rows,
            title=(
                f"EXP-15: delta-driven restricted satisfaction, "
                f"transitive closure of a {PATH_N}-path"
            ),
        ),
    )
    assert atoms == len(
        restricted_chase(path_instance(PATH_N), rules).instance
    )
    # The single-core claim: the delta-gated batched path must not lose
    # to the per-trigger interleaved loop it replaces (noise-bounded
    # guard; the expected direction is a win from amortized recording).
    assert times["delta-gated batched"] <= times[
        "interleaved (seed path)"
    ] * 1.5, times


def test_exp15_restricted_tournament():
    rules = parse_rules(TRANSITIVITY)
    rows, times = _sweep(
        lambda: tournament_instance(TOURNAMENT_N, seed=0), rules
    )
    emit(
        "exp15_restricted_tournament",
        format_table(
            ["configuration", "atoms", "rounds", "median s"],
            rows,
            title=(
                f"EXP-15: delta-driven restricted satisfaction, "
                f"transitive closure of a tournament (n={TOURNAMENT_N})"
            ),
        ),
    )
