"""The sharded round scheduler: persistent-pool fan-out, canonical merge.

One :class:`RoundScheduler` serves one ``persistent``-engine chase (or
closure) run.  Each round it routes the level's delta through a
:class:`~repro.engine.shards.ShardedIndex`, fans the per-shard
enumeration out over a :class:`~repro.engine.workers.WorkerPool`, and
merges the candidates back into the canonical order of the sequential
delta engine — per rule in rule-set order, matches sorted by
body-variable image — so the results are bit-identical no matter how many
workers ran.  There is one shard per worker, and shard *i* goes to
worker *i*.

Workers and determinism
-----------------------
Shard assignment is hash-based and workers finish in arbitrary order, but
neither can influence the output: every shard returns its matches keyed
by canonical image, equal keys imply equal (restricted) matches, and the
merge is a keyed union followed by a sort.  The worker count is
therefore purely a throughput knob.  With ``workers == 1`` (or a round
with a single non-empty shard) the shards run inline through the same
merge, with no processes.

The persistent pool
-------------------
Workers keep long-lived id-native instance replicas seeded once and
synced with per-round deltas, and the *firing* path is sharded across
the pool too (:meth:`RoundScheduler.fire_round`) — for every
non-interleaved round the :class:`~repro.engine.runner.ChaseRunner`
policies produce.  All pool payloads — sync deltas, pivots, fire/probe
task slices and their replies — travel in the interned-term encoding of
:mod:`repro.engine.wire` (flat id buffers over a shared append-only
symbol table), batched per worker: the scheduler hands the pool one task
list per worker and gets one merged reply per worker back, never
per-trigger messages.  The restricted chase's *split* rounds (any round
with existential-free triggers, mixed rounds included) additionally
shard their satisfaction gate: the ``probe`` protocol command
instantiates and pre-resolves each ground head against the worker
replicas, and the parent finalizes the claims lazily while recording
(:meth:`RoundScheduler.fire_split_round`).  This module never pickles:
every envelope is built and serialized by :mod:`repro.engine.workers`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.engine.batch import RoundOutcome
from repro.obs.trace import active_round
from repro.engine.config import EngineConfig
from repro.engine.core import delta_images, derive_round_atoms, image_sort_key
from repro.engine.shards import ShardedIndex, atom_weight
from repro.engine.workers import WorkerPool
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.rules.rule import Rule

if TYPE_CHECKING:  # annotation-only: keeps engine importable below chase
    from repro.chase.result import ChaseResult
    from repro.chase.trigger import Trigger
    from repro.logic.terms import FreshSupply

#: Task modes shipped to shard workers.
_ENUMERATE = "enumerate"
_DERIVE = "derive"


def _run_shard(
    mode: str,
    rules: Sequence[Rule],
    instance: Instance,
    view: Instance,
):
    """Enumerate one shard's delta view against the full instance.

    Returns per-rule image lists (each image once) in ``enumerate`` mode
    or the derived head-atom set in ``derive`` mode.  Runs inline in the
    parent and, on the persistent pool, inside each worker.
    """
    if mode == _DERIVE:
        return derive_round_atoms(rules, instance, view)
    return [list(delta_images(rule, instance, view)) for rule in rules]


class RoundScheduler:
    """Fans per-round delta enumeration out across the persistent pool.

    Create one per run and :meth:`close` it afterwards (the runner does
    both); the pool and the sharded index persist across rounds.  With
    ``workers == 1`` everything runs inline — same shards, same merge,
    no pool — which the determinism tests use as the sharded baseline.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self._index = ShardedIndex(config.workers)
        self._worker_pool: WorkerPool | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _pool(self) -> WorkerPool:
        if self._worker_pool is None:
            self._worker_pool = WorkerPool(self.config.workers)
        return self._worker_pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None

    def __enter__(self) -> "RoundScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    @property
    def fans_out(self) -> bool:
        """True when the scheduler has a worker pool to fan rounds out to.

        Sharded firing and sharded satisfaction probes only pay off
        across processes, so a one-worker scheduler keeps the inline
        batched paths of :func:`repro.engine.batch.fire_round`.
        """
        return self.config.workers > 1

    def _run_round(
        self,
        mode: str,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> list:
        """Shard the delta, run one task per non-empty shard, return the
        per-shard (inline) or per-worker (pool) results."""
        views = self._index.ingest(delta)
        recorder = active_round()
        if recorder is not None:
            # The packed-encoding byte weight each shard routed this
            # round, so a skewed delta shows in the trace.
            recorder.shard_weights = tuple(
                sum(atom_weight(atom) for atom in view) if len(view) else 0
                for view in views
            )
        tasks = [view for view in views if len(view)]
        if not tasks:
            return []
        if not self.fans_out or len(tasks) == 1:
            return [_run_shard(mode, rules, instance, v) for v in tasks]
        pivots = [view.sorted_atoms() for view in views]
        return self._pool().run_round(mode, rules, instance, pivots)

    def enumerate_images(
        self,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> list[list[tuple]]:
        """Canonically ordered body images of one round.

        Returns one list per rule (in rule order) of images sorted as the
        sequential delta engine fires them.  Duplicate images across
        shards (a body touching delta atoms in two shards) merge by set
        union.
        """
        shard_results = self._run_round(_ENUMERATE, instance, rules, delta)
        merged: list[set[tuple]] = [set() for _ in rules]
        for per_rule in shard_results:
            for target, images in zip(merged, per_rule):
                target.update(images)
        return [sorted(images, key=image_sort_key) for images in merged]

    def derive_atoms(
        self,
        instance: Instance,
        rules: Sequence[Rule],
        delta: Iterable[Atom],
    ) -> set[Atom]:
        """Batched derivation mode: the union of all head instantiations
        whose body uses ≥ 1 delta atom (order-free, for saturations)."""
        shard_results = self._run_round(_DERIVE, instance, rules, delta)
        derived: set[Atom] = set()
        for per_shard in shard_results:
            derived.update(per_shard)
        return derived

    # ------------------------------------------------------------------
    # Sharded firing
    # ------------------------------------------------------------------

    def fire_round(
        self,
        result: "ChaseResult",
        triggers: Sequence["Trigger"],
        supply: "FreshSupply",
        *,
        level: int,
        max_atoms: int,
        claim: Callable[["Trigger"], bool] | None = None,
    ) -> RoundOutcome | None:
        """Fire one round with head instantiation sharded across workers.

        Bit-identical to the sequential batched path by construction:

        * the claim gate runs parent-side, in canonical order, exactly
          once per trigger, and *lazily with respect to budget stops*:
          the round proceeds in budget-safe chunks (see
          :meth:`_claim_cap`), so a stateful claim (the semi-oblivious
          frontier dedup) observes exactly the call sequence of the lazy
          inline stream — after a mid-round budget stop, no further
          trigger is claimed;
        * every null is drawn from ``supply`` parent-side, in canonical
          trigger order, and shipped to the worker that instantiates the
          trigger's heads — workers never allocate names;
        * a claim gate that already instantiated a trigger's ground head
          (parking it on ``Trigger._ground_output``) produces no fire
          task at all: the parked atoms are reused, instead of being
          instantiated a second time in a worker;
        * the gathered outputs are re-ordered by canonical trigger index
          and recorded through the same amortized
          :meth:`~repro.chase.result.ChaseResult.record_round` pass, so
          provenance records, atom levels and timestamps match exactly;
        * a budget stop can only land in a single-claim chunk, so the
          supply stops at exactly the position the lazy sequential
          stream stops at (the defensive rewind in :meth:`_fire_chunk`
          would restore it even if a chunk overran).

        Returns ``None`` when this round should run inline instead (too
        few triggers, or a one-worker pool); the caller falls back
        to :func:`repro.engine.batch.fire_round` with claim and supply
        untouched.
        """
        if not self.fans_out or len(triggers) < 2:
            return None
        # The chunk cap below assumes one application adds at most
        # max_head new atoms — exact, since outputs are head images.
        max_head = max(len(t.rule.head) for t in triggers)
        total_applied = 0
        cursor = 0
        count = len(triggers)
        while cursor < count:
            cap = self._claim_cap(result, max_atoms, max_head)
            claimed: list["Trigger"] = []
            while cursor < count and len(claimed) < cap:
                trigger = triggers[cursor]
                cursor += 1
                if claim is None or claim(trigger):
                    claimed.append(trigger)
            if not claimed:
                continue
            outcome = self._fire_chunk(
                result, claimed, supply, level=level, max_atoms=max_atoms
            )
            total_applied += outcome.applied
            if outcome.budget_exceeded:
                return RoundOutcome(total_applied, True)
        return RoundOutcome(total_applied, False)

    def _claim_cap(
        self, result: "ChaseResult", max_atoms: int, max_head: int
    ) -> int:
        """How many triggers the next chunk may claim, budget-safely.

        Recording ``cap`` claimed triggers adds at most ``cap * max_head``
        atoms, so a chunk capped at ``headroom // max_head`` can never
        exceed ``max_atoms`` — claims and null draws for it run at most
        one *safe* chunk ahead of recording, never past a budget stop.
        Once the headroom is smaller than one worst-case application the
        cap degrades to 1: claim one trigger, record it, re-check — the
        exact per-trigger laziness of the inline stream, which is what
        keeps stateful claims and supply positions bit-identical there
        too.  Away from the budget the cap covers the whole round and the
        round fans out in a single chunk, as before.
        """
        headroom = max_atoms - len(result.instance)
        return max(1, headroom // max_head)

    def _fire_chunk(
        self,
        result: "ChaseResult",
        claimed: Sequence["Trigger"],
        supply: "FreshSupply",
        *,
        level: int,
        max_atoms: int,
    ) -> RoundOutcome:
        """Instantiate and record one chunk of already-claimed triggers."""
        # Draw the chunk's nulls in canonical order, remembering the
        # supply position after each trigger for exact budget-stop rewind.
        existential_maps: list[dict] = []
        positions: list[int] = []
        for trigger in claimed:
            existential_maps.append(
                {v: supply.null() for v in trigger.rule.existential_order()}
            )
            positions.append(supply.position)
        # Tasks reference rules by index into the chunk's distinct-rule
        # tuple (a few atoms per rule) instead of re-shipping the rule per
        # trigger; the pool packs each worker's task list into one flat
        # id buffer (repro.engine.wire).  Triggers
        # whose claim parked a ground output produce no task: the parked
        # atoms are the output.
        rule_indexes: dict[Rule, int] = {}
        fire_rules: list[Rule] = []
        outputs: dict[int, set[Atom]] = {}
        tasks_per_worker: list[list[tuple]] = [
            [] for _ in range(self.config.workers)
        ]
        for index, trigger in enumerate(claimed):
            parked = trigger._ground_output
            if parked is not None:
                outputs[index] = parked
                continue
            rule_index = rule_indexes.get(trigger.rule)
            if rule_index is None:
                rule_index = len(fire_rules)
                rule_indexes[trigger.rule] = rule_index
                fire_rules.append(trigger.rule)
            tasks_per_worker[index % self.config.workers].append(
                (
                    index,
                    rule_index,
                    trigger.image(),
                    tuple(existential_maps[index].values()),
                )
            )
        if fire_rules:
            outputs.update(self._pool().fire(fire_rules, tasks_per_worker))
        applications = (
            (trigger, (outputs[index], existential_maps[index]))
            for index, trigger in enumerate(claimed)
        )
        applied, exceeded = result.record_round(
            applications, level=level, max_atoms=max_atoms
        )
        if exceeded:
            supply.rewind(positions[applied - 1])
        return RoundOutcome(applied, exceeded)

    def fire_split_round(
        self,
        result: "ChaseResult",
        triggers: Sequence["Trigger"],
        supply: "FreshSupply",
        *,
        level: int,
        max_atoms: int,
    ) -> RoundOutcome | None:
        """Fire a restricted *split* round: sharded probes, lazy claims.

        The round's existential-free triggers fan out over the worker
        pool as ``probe`` tasks — each worker instantiates its slice's
        ground heads exactly once and splits them against its replica
        (the chase instance at round start) into present/missing atoms.
        The parent then records the round in one canonical-order pass
        that interleaves the (typically small) existential remainder:

        * a probed trigger claims iff one of its ``missing`` witnesses is
          still absent — ``missing`` was computed against the round-start
          instance, so only those few atoms are re-checked against what
          the round has recorded so far (the witness overlay the probe
          reply ships back);
        * an existential trigger claims via the same
          :meth:`~repro.chase.trigger.Trigger.is_satisfied_using_index`
          check as the interleaved reference, observing every earlier
          application of the round, and draws its nulls in place.

        The stream is pulled lazily by
        :meth:`~repro.chase.result.ChaseResult.record_round`, so claims,
        null draws and budget stops are bit-identical to the interleaved
        reference; only the probes run (speculatively but invisibly)
        ahead of it, worker-side.  Returns ``None`` when the round should
        run on the inline split path instead (a one-worker pool, or too
        few probe-eligible triggers).
        """
        if not self.fans_out:
            return None
        workers = self.config.workers
        rule_indexes: dict[Rule, int] = {}
        probe_rules: list[Rule] = []
        tasks_per_worker: list[list[tuple]] = [[] for _ in range(workers)]
        ground_count = 0
        for index, trigger in enumerate(triggers):
            if trigger.rule.existential_order():
                continue
            rule_index = rule_indexes.get(trigger.rule)
            if rule_index is None:
                rule_index = len(probe_rules)
                rule_indexes[trigger.rule] = rule_index
                probe_rules.append(trigger.rule)
            tasks_per_worker[index % workers].append(
                (index, rule_index, trigger.image())
            )
            ground_count += 1
        if ground_count < 2:
            return None
        instance = result.instance
        recorder = active_round()
        if recorder is not None:
            with recorder.outer_phase("probe"):
                probe_results = self._pool().probe_round(
                    probe_rules, instance, tasks_per_worker
                )
        else:
            probe_results = self._pool().probe_round(
                probe_rules, instance, tasks_per_worker
            )
        probed = {
            index: (present, missing)
            for index, present, missing in probe_results
        }

        def applications():
            perf = time.perf_counter
            for index, trigger in enumerate(triggers):
                probe = probed.get(index)
                if probe is None:
                    if recorder is None:
                        satisfied = trigger.is_satisfied_using_index(instance)
                    else:
                        gate_start = perf()
                        satisfied = trigger.is_satisfied_using_index(instance)
                        recorder.add_phase("gate", perf() - gate_start)
                    if satisfied:
                        continue
                    yield trigger, trigger.output(supply)
                else:
                    present, missing = probe
                    if recorder is None:
                        satisfied = all(a in instance for a in missing)
                    else:
                        gate_start = perf()
                        satisfied = all(a in instance for a in missing)
                        recorder.add_phase("gate", perf() - gate_start)
                    if satisfied:
                        continue
                    output = set(present)
                    output.update(missing)
                    yield trigger, (output, {})

        applied, exceeded = result.record_round(
            applications(), level=level, max_atoms=max_atoms
        )
        return RoundOutcome(applied, exceeded)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def shard_sizes(self) -> tuple[int, ...]:
        """Cumulative per-shard atom counts routed so far this run."""
        return self._index.sizes()
