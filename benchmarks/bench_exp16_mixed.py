"""EXP-16 — worker-resident satisfaction for mixed restricted rounds.

PR 4 made *pure* existential-free restricted rounds delta-gated and
shardable (EXP-15); mixed rounds — existential and existential-free
triggers in the same round — still interleaved everything parent-side.
The split-round path changes that: the round's existential-free triggers
are instantiated and satisfaction-probed up front (on the persistent
backend: worker-side, against long-lived replicas, via the ``probe``
protocol command), and the round then records in one canonical-order
lazy pass that interleaves only the small existential remainder.

The workload makes every round genuinely mixed: a successor rule keeps
extending a path with fresh nulls (one unsatisfied existential trigger
per round — the interleaved remainder) while transitive closure over the
same ``E`` predicate floods each round with existential-free triggers
(the sharded sub-round).

Acceptance on this 1-CPU GIL harness:

* every configuration produces a bit-identical ``ChaseResult`` (atoms,
  provenance records, rounds) — the split decomposition of a mixed round
  is invisible in the results,
* the inline split path does not regress vs the seed interleaved loop
  (amortized recording + single head instantiation are the single-core
  win), and
* the persistent backend agrees exactly while probing worker-side
  (``TRANSPORT_STATS.probes`` > 0); its wall-clock win needs multicore —
  transport payload and equivalence are the hardware-independent claims
  here.
"""

import statistics
import time

from conftest import emit, emit_json, engine_provenance
from repro.chase import restricted_chase
from repro.corpus import path_instance
from repro.engine import EngineConfig, TRANSPORT_STATS
from repro.io import format_table
from repro.rules.parser import parse_rules

PATH_N = 60
MAX_ROUNDS = 8
MAX_ATOMS = 200_000
TRIALS = 3

MIXED_RULES = (
    "E(x,y) -> exists z. E(y,z)\n"
    "E(x,y), E(y,z) -> E(x,z)"
)

#: (label, engine, delta_satisfaction) — the seed interleaved path first.
CONFIGS = [
    ("interleaved (seed path)", "delta", False),
    ("split inline (delta)", "delta", True),
    ("persistent split (w=2)", EngineConfig("persistent", workers=2), True),
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


def test_exp16_mixed_rounds():
    rules = parse_rules(MIXED_RULES, name="succ_tc")
    rows, results, times, probes, transports = [], {}, {}, {}, {}
    for label, engine, gate in CONFIGS:
        TRANSPORT_STATS.reset()
        result, median_s = _measure(
            lambda: restricted_chase(
                path_instance(PATH_N),
                rules,
                max_rounds=MAX_ROUNDS,
                max_atoms=MAX_ATOMS,
                engine=engine,
                delta_satisfaction=gate,
            )
        )
        results[label] = result
        times[label] = median_s
        probes[label] = TRANSPORT_STATS.probes
        transports[label] = TRANSPORT_STATS.snapshot()
        rows.append(
            (
                label,
                len(result.instance),
                result.levels_completed,
                TRANSPORT_STATS.probes // TRIALS,
                f"{median_s:.3f}",
            )
        )
    reference = results["interleaved (seed path)"]
    for result in results.values():
        _assert_bit_identical(result, reference)
    emit(
        "exp16_mixed",
        format_table(
            ["configuration", "atoms", "rounds", "probe rounds", "median s"],
            rows,
            title=(
                f"EXP-16: worker-resident satisfaction for mixed restricted "
                f"rounds, successor + transitive closure on a {PATH_N}-path "
                f"({MAX_ROUNDS} rounds)"
            ),
        ),
    )
    emit_json(
        "exp16",
        {
            "experiment": "EXP-16",
            "workload": {
                "generator": "path_instance",
                "n": PATH_N,
                "rules": MIXED_RULES,
                "max_rounds": MAX_ROUNDS,
                "max_atoms": MAX_ATOMS,
                "trials": TRIALS,
            },
            # Transport counters accumulate over the TRIALS runs of each
            # configuration (the per-config reset is before the measure
            # loop); byte counters are deterministic, wall-clocks noisy.
            "configurations": {
                label: {
                    "provenance": engine_provenance(engine),
                    "delta_satisfaction": gate,
                    "atoms": len(results[label].instance),
                    "rounds": results[label].levels_completed,
                    "probe_rounds": probes[label] // TRIALS,
                    "median_s": times[label],
                    "transport": transports[label],
                }
                for label, engine, gate in CONFIGS
            },
        },
    )
    # The single-core claim: the inline split path must not lose to the
    # per-trigger interleaved loop it replaces (noise-bounded guard; the
    # expected direction is a win from amortized recording and
    # single-instantiation claims).
    assert times["split inline (delta)"] <= times[
        "interleaved (seed path)"
    ] * 1.5, times
    # The worker-resident gate actually ran on the persistent backend.
    assert probes["persistent split (w=2)"] > 0
    assert probes["split inline (delta)"] == 0
