"""The engine subsystem: registry, sharding, sharded-merge equivalence.

The sharded scheduler's contract is the strongest the library makes: for
every chase variant, every corpus workload, and *every* worker/shard
count, ``engine="persistent"`` must produce a :class:`ChaseResult` that
is bit-identical to the sequential delta engine — same atoms, levels,
termination flag, timestamps, null names and provenance records.  The
full workload matrix here runs the multi-shard merge inline
(``workers=1``, several shards, no processes); the process pool's slice
of it lives in ``test_engine_persistent.py``.  The suite also pins the
registry's error behavior, the sharded index, the batched firing path,
the Datalog closure engines, and the index-seeded satisfaction fast path
of the restricted chase.
"""

from __future__ import annotations

import pytest

from repro.chase import (
    oblivious_chase,
    restricted_chase,
    semi_oblivious_chase,
)
from repro.chase.trigger import triggers_of
from repro.corpus.families import (
    branching_tree,
    datalog_grid,
    inclusion_chain,
    merge_ladder,
)
from repro.corpus.generators import (
    path_instance,
    random_digraph_instance,
    random_nonrecursive_ruleset,
    tournament_instance,
)
from repro.engine import (
    EngineConfig,
    RoundScheduler,
    ShardedIndex,
    WorkerPool,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.errors import ChaseError
from repro.logic.atoms import atom
from repro.rewriting.datalog import semi_naive_closure
from repro.rules.parser import parse_instance, parse_rules


#: The persistent engine's scheduler at one worker: the delta splits into
#: three hash shards whose matches merge inline — no processes.
INLINE_SHARDED = EngineConfig("persistent", workers=1, shards=3)


def assert_bit_identical(a, b):
    """Full ChaseResult equality: atoms, levels, provenance, timestamps."""
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert a.records() == b.records()
    for term in a.instance.active_domain():
        assert a.timestamp(term) == b.timestamp(term)
    for at in a.instance:
        assert a.atom_level(at) == b.atom_level(at)


def _workloads():
    succ = parse_rules(
        "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)",
        name="succ_overlay",
    )
    transitivity = parse_rules("E(x,y), E(y,z) -> E(x,z)", name="tc")
    cases = [
        ("path_succ", path_instance(8), succ, 4),
        ("path_tc", path_instance(8), transitivity, 6),
        ("tournament_succ", tournament_instance(7, seed=0), succ, 3),
        ("tournament_tc", tournament_instance(6, seed=3), transitivity, 4),
    ]
    for entry in (
        inclusion_chain(3),
        branching_tree(2),
        merge_ladder(2),
        datalog_grid(6),
    ):
        cases.append((entry.name, entry.instance, entry.rules, 4))
    for seed in (0, 1):
        cases.append(
            (
                f"random_{seed}",
                random_digraph_instance(5, 0.4, seed=seed),
                parse_rules(
                    "E(x,y) -> exists z. F(y,z)\nF(x,y), E(y,z) -> E(x,z)",
                    name="mixed",
                ),
                4,
            )
        )
        cases.append(
            (
                f"stratified_{seed}",
                parse_instance("L0P0(a,b), L0P1(b,c)"),
                random_nonrecursive_ruleset(seed=seed),
                5,
            )
        )
    return cases


WORKLOADS = _workloads()
IDS = [w[0] for w in WORKLOADS]

VARIANTS = [
    ("oblivious", lambda i, r, n, e: oblivious_chase(
        i.copy(), r, max_levels=n, max_atoms=20_000, engine=e)),
    ("semi_oblivious", lambda i, r, n, e: semi_oblivious_chase(
        i.copy(), r, max_levels=n, max_atoms=20_000, engine=e)),
    ("restricted", lambda i, r, n, e: restricted_chase(
        i.copy(), r, max_rounds=n, max_atoms=20_000, engine=e)),
]


# ----------------------------------------------------------------------
# Registry and configuration
# ----------------------------------------------------------------------


class TestRegistry:
    def test_available_engines(self):
        assert available_engines() == ("delta", "naive", "persistent")

    def test_parallel_mode_is_rejected_listing_valid_modes(self):
        with pytest.raises(ChaseError) as excinfo:
            EngineConfig("parallel")
        message = str(excinfo.value)
        assert "'parallel'" in message and "valid modes" in message
        for mode in ("delta", "naive", "persistent"):
            assert mode in message

    def test_unknown_engine_is_chase_error_listing_names(self):
        with pytest.raises(ChaseError) as excinfo:
            resolve_engine("semi-naive")
        message = str(excinfo.value)
        assert "semi-naive" in message
        for name in available_engines():
            assert name in message

    def test_every_entry_point_rejects_unknown_names(self):
        inst = path_instance(3)
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        for runner in (
            lambda: oblivious_chase(inst, rules, engine="bogus"),
            lambda: semi_oblivious_chase(inst, rules, engine="bogus"),
            lambda: restricted_chase(inst, rules, engine="bogus"),
            lambda: semi_naive_closure(inst, rules, engine="bogus"),
        ):
            with pytest.raises(ChaseError, match="valid engines"):
                runner()

    def test_explicit_config_passes_through(self):
        config = EngineConfig("persistent", workers=2, shards=8)
        assert resolve_engine(config) is config
        assert config.shard_count == 8
        assert EngineConfig("persistent", workers=3).shard_count == 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ChaseError):
            EngineConfig("persistent", workers=0)
        with pytest.raises(ChaseError):
            EngineConfig("persistent", shards=-1)

    def test_register_engine_roundtrip(self):
        original = resolve_engine("persistent")
        with pytest.raises(ChaseError):
            register_engine(EngineConfig("delta"))  # name taken
        register_engine(
            EngineConfig("persistent", workers=2), replace_existing=True
        )
        try:
            assert resolve_engine("persistent").workers == 2
        finally:
            register_engine(original, replace_existing=True)
        assert resolve_engine("persistent") is original

    def test_custom_named_preset_dispatches_by_mode(self):
        # A preset under a new name must actually run its mode's engine.
        rules = parse_rules("E(x,y), E(y,z) -> F(x,z)")
        register_engine(
            EngineConfig("turbo", mode="persistent", workers=1, shards=3)
        )
        try:
            reference = oblivious_chase(path_instance(6), rules, max_levels=3)
            run = oblivious_chase(
                path_instance(6), rules, max_levels=3, engine="turbo"
            )
            assert_bit_identical(run, reference)
            assert resolve_engine("turbo").is_persistent
        finally:
            import repro.engine.config as config_module

            del config_module._REGISTRY["turbo"]

    def test_unknown_mode_rejected_at_construction(self):
        with pytest.raises(ChaseError, match="valid modes"):
            EngineConfig("bogus-mode")
        with pytest.raises(ChaseError, match="valid modes"):
            EngineConfig("preset", mode="bogus")


# ----------------------------------------------------------------------
# Sharded index
# ----------------------------------------------------------------------


class TestShardedIndex:
    def test_partition_is_exact(self):
        index = ShardedIndex(3)
        atoms = [atom("E", f"x{i}", f"x{i+1}") for i in range(20)]
        views = index.ingest(atoms)
        assert len(views) == 3
        routed = [a for view in views for a in view]
        assert sorted(routed) == sorted(atoms)
        assert sum(index.sizes()) == len(index) == len(atoms)
        # Each atom lands in exactly the shard its hash names.
        for i, view in enumerate(views):
            for a in view:
                assert index.shard_of(a) == i

    def test_duplicates_within_a_batch_count_once(self):
        from repro.engine.shards import atom_weight

        index = ShardedIndex(2)
        a = atom("P", "x0")
        b = atom("P", "x1")
        views = index.ingest([a, b, a])
        assert sum(len(v) for v in views) == 2
        assert len(index) == sum(index.sizes()) == 2
        assert sum(index.weights()) == atom_weight(a) + atom_weight(b)

    def test_shard_count_validated(self):
        with pytest.raises(ChaseError):
            ShardedIndex(0)

    def test_weight_accounting_tracks_ingests(self):
        from repro.engine.shards import atom_weight

        index = ShardedIndex(3)
        atoms = [atom("E", f"x{i}", f"x{i+1}") for i in range(12)]
        atoms.append(atom("Wide", "a", "b", "c", "d", "e"))
        index.ingest(atoms)
        # Per-shard weights sum to the total estimate and mirror the count
        # distribution.
        assert sum(index.weights()) == sum(atom_weight(a) for a in atoms)
        for count, weight in zip(index.sizes(), index.weights()):
            assert (count == 0) == (weight == 0)
        # Arity-aware: the wide atom weighs more than a binary one.
        assert atom_weight(atoms[-1]) > atom_weight(atoms[0])


# ----------------------------------------------------------------------
# Cross-engine equivalence: sharded == delta == naive
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,instance,rules,levels", WORKLOADS, ids=IDS)
@pytest.mark.parametrize("variant,run", VARIANTS, ids=[v[0] for v in VARIANTS])
class TestShardedEquivalence:
    def test_sharded_matches_delta_and_naive(
        self, variant, run, name, instance, rules, levels
    ):
        delta = run(instance, rules, levels, "delta")
        naive = run(instance, rules, levels, "naive")
        sharded = run(instance, rules, levels, INLINE_SHARDED)
        assert_bit_identical(sharded, delta)
        assert_bit_identical(sharded, naive)


class TestSchedulerDeterminism:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_and_shard_counts_do_not_matter(
        self, workers, shards, monkeypatch
    ):
        rules = parse_rules(
            "E(x,y) -> exists z. E(y,z)\nE(x,y), E(y,z) -> F(x,z)"
        )
        make = lambda: tournament_instance(6, seed=1)
        reference = oblivious_chase(make(), rules, max_levels=3)
        if workers == 1:
            # One worker merges every shard inline: no process may start.
            def no_processes(pool, count):
                raise AssertionError("workers=1 spawned worker processes")

            monkeypatch.setattr(WorkerPool, "_spawn", no_processes)
        config = EngineConfig("persistent", workers=workers, shards=shards)
        run = oblivious_chase(make(), rules, max_levels=3, engine=config)
        assert_bit_identical(run, reference)

    def test_repeated_runs_are_identical(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        config = EngineConfig("persistent", workers=2)
        reference = restricted_chase(
            path_instance(7), rules, max_rounds=6, engine=config
        )
        for _ in range(3):
            again = restricted_chase(
                path_instance(7), rules, max_rounds=6, engine=config
            )
            assert_bit_identical(again, reference)

    def test_pickles_rehash_across_hash_seeds(self):
        # Spawned workers run under a different PYTHONHASHSEED; a cached
        # _hash copied verbatim across that boundary would break equality
        # and set membership (Atom.__eq__ short-circuits on _hash).  The
        # __reduce__ hooks on Term/Predicate/Atom/Rule rebuild through
        # __init__, recomputing the hash with the local seed.
        import os
        import pathlib
        import subprocess
        import sys
        import tempfile

        writer = (
            "import pickle, sys\n"
            "from repro.logic.atoms import atom\n"
            "from repro.rules.parser import parse_rules\n"
            "rules = parse_rules('E(x,y), E(y,z) -> E(x,z)')\n"
            "payload = (atom('E', 'a', 'b'), tuple(rules))\n"
            "pickle.dump(payload, open(sys.argv[1], 'wb'))\n"
        )
        reader = (
            "import pickle, sys\n"
            "from repro.logic.atoms import atom\n"
            "from repro.rules.parser import parse_rules\n"
            "a, rules = pickle.load(open(sys.argv[1], 'rb'))\n"
            "assert a == atom('E', 'a', 'b'), 'atom equality broke'\n"
            "assert a in {atom('E', 'a', 'b')}, 'atom membership broke'\n"
            "assert hash(a) == hash(atom('E', 'a', 'b'))\n"
            "local = tuple(parse_rules('E(x,y), E(y,z) -> E(x,z)'))\n"
            "assert rules == local and hash(rules[0]) == hash(local[0])\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            blob = pathlib.Path(tmp) / "payload.pickle"
            for seed, script, arg in (("1", writer, blob), ("2", reader, blob)):
                env = dict(
                    os.environ,
                    PYTHONHASHSEED=seed,
                    PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""),
                )
                subprocess.run(
                    [sys.executable, "-c", script, str(arg)],
                    check=True,
                    env=env,
                    cwd=pathlib.Path(__file__).parent.parent,
                )

    def test_scheduler_context_manager_closes_pool(self):
        config = EngineConfig("persistent", workers=2)
        with RoundScheduler(config) as scheduler:
            inst = path_instance(4)
            rules = list(parse_rules("E(x,y), E(y,z) -> F(x,z)"))
            per_rule = scheduler.enumerate_images(
                inst, rules, list(inst)
            )
            assert len(per_rule) == 1
            images = per_rule[0]
            assert images and images == sorted(images)
            assert sum(scheduler.shard_sizes()) == len(inst)
        assert scheduler._worker_pool is None


# ----------------------------------------------------------------------
# Budget behavior through the batched firing path
# ----------------------------------------------------------------------


class TestBudgetsThroughBatchedFiring:
    def test_partial_results_match_on_atom_budget(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        for engine in ("delta", INLINE_SHARDED):
            result = oblivious_chase(
                tournament_instance(6, seed=0),
                rules,
                max_levels=5,
                max_atoms=40,
                engine=engine,
            )
            assert not result.terminated
            assert len(result.instance) > 40  # stopped right after the hit
        delta = oblivious_chase(
            tournament_instance(6, seed=0), rules, max_levels=5,
            max_atoms=40,
        )
        sharded = oblivious_chase(
            tournament_instance(6, seed=0), rules, max_levels=5,
            max_atoms=40, engine=INLINE_SHARDED,
        )
        assert_bit_identical(delta, sharded)

    def test_strict_budget_raises_for_sharded(self):
        from repro.errors import ChaseBudgetExceeded

        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        with pytest.raises(ChaseBudgetExceeded):
            oblivious_chase(
                tournament_instance(6, seed=0),
                rules,
                max_levels=5,
                max_atoms=40,
                strict=True,
                engine=INLINE_SHARDED,
            )


# ----------------------------------------------------------------------
# Datalog closure engines
# ----------------------------------------------------------------------


class TestClosureEngines:
    def test_all_engines_agree_with_the_chase(self):
        rules = parse_rules(
            """
            E(x,y), E(y,z) -> E(x,z)
            E(x,y) -> F(y,x)
            F(x,y), F(y,z) -> G(x,z)
            """
        )
        inst = parse_instance("E(a,b), E(b,c), E(c,a)")
        chased = oblivious_chase(inst, rules, max_levels=10).instance
        for engine in (INLINE_SHARDED, "delta", "naive"):
            assert semi_naive_closure(inst, rules, engine=engine) == chased

    def test_worker_counts_agree_on_corpus(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        reference = semi_naive_closure(path_instance(12), rules, engine="delta")
        for workers, shards in ((1, 1), (1, 4), (2, 0)):
            config = EngineConfig("persistent", workers=workers, shards=shards)
            assert (
                semi_naive_closure(path_instance(12), rules, engine=config)
                == reference
            )

    def test_delta_closure_builds_no_triggers(self, monkeypatch):
        # The delta closure derives heads straight from the matcher's
        # bindings; a Trigger object on that path is wasted work.
        from repro.chase.trigger import Trigger

        def refuse(self, *args, **kwargs):
            raise AssertionError("the delta closure constructed a Trigger")

        monkeypatch.setattr(Trigger, "__init__", refuse)
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        closure = semi_naive_closure(path_instance(12), rules, engine="delta")
        # 13 path nodes: one E-atom per ordered pair, plus top.
        assert len(closure) == 13 * 12 // 2 + 1

    def test_closure_budget_still_enforced(self):
        from repro.errors import ChaseBudgetExceeded

        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        with pytest.raises(ChaseBudgetExceeded):
            semi_naive_closure(path_instance(30), rules, max_atoms=50)


# ----------------------------------------------------------------------
# Index-seeded satisfaction fast path (restricted chase)
# ----------------------------------------------------------------------


class TestSatisfactionFastPath:
    def _all_triggers(self, instance, rules):
        return list(triggers_of(instance, rules))

    @pytest.mark.parametrize("name,instance,rules,levels", WORKLOADS, ids=IDS)
    def test_agrees_with_generic_matcher(self, name, instance, rules, levels):
        # Grow the instance one chase level so heads are partially
        # satisfied, then compare both satisfaction tests on every trigger.
        grown = oblivious_chase(instance.copy(), rules, max_levels=1).instance
        checked = 0
        for trigger in self._all_triggers(grown, rules):
            assert trigger.is_satisfied_using_index(grown) == \
                trigger.is_satisfied_in(grown)
            checked += 1
        assert checked > 0

    def test_datalog_head_membership(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        inst = parse_instance("E(a,b), E(b,c), E(c,d), E(a,c)")
        satisfied, unsatisfied = 0, 0
        for trigger in self._all_triggers(inst, rules):
            if trigger.is_satisfied_using_index(inst):
                satisfied += 1
            else:
                unsatisfied += 1
        # (a,b),(b,c) -> E(a,c) is satisfied; (b,c),(c,d) -> E(b,d) and
        # (a,c),(c,d) -> E(a,d) are not.
        assert satisfied == 1 and unsatisfied == 2

    def test_existential_single_atom_head_uses_index(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        inst = parse_instance("E(a,b), E(b,c)")
        triggers = {
            t.image(): t for t in self._all_triggers(inst, rules)
        }
        results = {
            image: t.is_satisfied_using_index(inst)
            for image, t in triggers.items()
        }
        # E(a,b) has the successor E(b,c); E(b,c) has none.
        assert sorted(results.values()) == [False, True]

    def test_repeated_existential_variable(self):
        # exists z. E(z,z): only a loop satisfies the head.
        rules = parse_rules("P(x) -> exists z. E(z,z)")
        (rule,) = list(rules)
        inst_no_loop = parse_instance("P(a), E(a,b)")
        inst_loop = parse_instance("P(a), E(b,b)")
        for inst, expected in ((inst_no_loop, False), (inst_loop, True)):
            for trigger in self._all_triggers(inst, [rule]):
                assert trigger.is_satisfied_using_index(inst) == expected
                assert trigger.is_satisfied_in(inst) == expected
