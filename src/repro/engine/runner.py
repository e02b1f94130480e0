"""The unified saturation runner: one strategy-driven loop for every variant.

The paper's chase variants (oblivious, semi-oblivious, restricted) and the
semi-naive Datalog closure are all the *same* loop — enumerate the triggers
new against the last delta, gate them, fire, record, check budgets and the
fixpoint — differing only in a handful of strategy decisions.  This module
owns that loop once:

* :class:`ChaseRunner` — engine resolution, scheduler/worker-pool
  lifecycle, the per-round enumerate → gate → fire → record cycle, budget
  handling with strict/partial semantics, fixpoint detection, and the
  supply rewind on a mid-round budget stop.
* :class:`VariantPolicy` — the small strategy surface that actually
  differs per variant: how triggers are enumerated (delta-filtered or by
  naive re-match against a seen set), the claim gate (none, frontier-class
  dedup, or the restricted chase's satisfaction check), the firing mode of
  each round (batched-shardable vs interleaved), and the budget-exceeded
  wording of round-vs-level accounting.

The chase variants (:mod:`repro.chase.oblivious`,
:mod:`repro.chase.semi_oblivious`, :mod:`repro.chase.restricted`) and the
Datalog closure (:mod:`repro.rewriting.datalog`) are thin policy
declarations over this runner; engine features — new backends, sharded
firing, adaptive routing — land here once instead of once per variant.

Delta-driven satisfaction and sharded restricted firing
-------------------------------------------------------
The restricted chase historically forced *interleaved* firing: its claim
(the head-satisfaction check) reads the instance as it grows within the
round, so triggers had to be claimed, instantiated and recorded one at a
time.  The runner's :class:`RoundPlan` lets the restricted policy mark
any round containing existential-free triggers as a *split* round
instead: those triggers' outputs are fully determined by their body
homomorphisms, so their heads are instantiated up front — sharded across
the persistent pool's worker replicas via the ``probe`` protocol
command, which also pre-resolves each head's round-start satisfaction
witnesses — while the claims themselves still run lazily, in canonical
order, inside one amortized recording pass that interleaves the (small)
existential remainder's satisfaction checks in place.  Mixed rounds
therefore no longer interleave everything: only the existential triggers
do, and the rest fans out — bit-identically to the interleaved reference
(same claims, same canonical firing order, same provenance records,
null names and budget-stop positions).

Import layering
---------------
``repro.engine`` sits *below* ``repro.chase`` (the trigger module builds
on :mod:`repro.engine.core`), so this module imports the trigger/result
layer lazily inside its methods — the runner is importable from either
direction without cycles.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.engine.batch import fire_round
from repro.engine.config import EngineConfig, resolve_engine
from repro.engine.core import (
    any_delta_image,
    as_delta_instance,
    derive_round_atoms,
)
from repro.engine.scheduler import RoundScheduler
from repro.engine.workers import TRANSPORT_STATS
from repro.errors import ChaseBudgetExceeded, ChaseError
from repro.logic.terms import FreshSupply
from repro.obs import default_registry
from repro.obs.trace import TRACE_SCHEMA_VERSION, RunTrace, active_round

if TYPE_CHECKING:  # annotation-only: keeps engine importable below chase
    from repro.chase.result import ChaseResult
    from repro.chase.trigger import Trigger
    from repro.logic.atoms import Atom
    from repro.logic.instances import Instance
    from repro.rules.ruleset import RuleSet


class RoundPlan(NamedTuple):
    """How one round fires: the claim gate and the firing mode.

    ``claim`` is evaluated in canonical firing order, exactly once per
    trigger (it may be stateful); ``None`` fires everything.  With
    ``interleaved=False`` the round goes through the batched recording
    pass — and through sharded firing when the engine backend supports it;
    ``interleaved=True`` records each application before the next claim
    runs, for gates that must observe mid-round growth.

    ``split=True`` marks a restricted *split* round — one containing
    existential-free triggers whose ground outputs double as their own
    satisfaction witnesses.  Such a round ignores ``claim``: the
    existential-free triggers are instantiated up front (sharded across
    worker replicas via the ``probe`` protocol on a persistent backend)
    and the round records in one canonical-order lazy pass that gates
    each probed trigger by witness membership and interleaves the
    existential remainder's satisfaction checks in place — bit-identical
    to the fully interleaved reference, mixed rounds included.
    """

    claim: Callable[["Trigger"], bool] | None
    interleaved: bool
    split: bool = False


#: The plan of an ungated batched round (the oblivious chase's only plan).
FIRE_ALL = RoundPlan(claim=None, interleaved=False)


class VariantPolicy:
    """The strategy surface of one saturation variant.

    A policy instance is created per run (it may carry per-run state such
    as the naive engine's seen set or the semi-oblivious frontier classes)
    and handed to :class:`ChaseRunner`, which owns everything else.  The
    base class implements the common case — unfiltered delta enumeration,
    ungated batched firing, level accounting — so concrete policies only
    override what genuinely differs.
    """

    #: Human-readable variant name, used in budget-exceeded messages.
    variant = "chase"
    #: Prefix of the run's default :class:`~repro.logic.terms.FreshSupply`.
    supply_prefix = "_n"
    #: True for saturation policies without trigger identity (the Datalog
    #: closure): rounds derive atom sets instead of firing triggers.
    derivation = False
    #: Stop (fixpoint) as soon as a round enumerates no new triggers.
    stop_on_empty_round = True
    #: Stop (fixpoint) when a fired round recorded no applications — the
    #: restricted chase's convergence rule.
    stop_on_idle_round = False
    #: After the step budget runs out, enumerate once more to distinguish
    #: "stopped exactly at the fixpoint" from a genuine budget stop.
    probe_fixpoint = True
    #: What a step is called in budget messages (``levels`` or ``rounds``).
    step_noun = "levels"

    # -- enumeration ---------------------------------------------------

    def filter_new(self, triggers: Iterable["Trigger"]) -> list["Trigger"]:
        """Post-filter the delta/persistent enumeration of one round."""
        return triggers if isinstance(triggers, list) else list(triggers)

    def naive_new_triggers(
        self, instance: "Instance", rules: "RuleSet"
    ) -> list["Trigger"]:
        """One round of the naive engine: full re-match minus the seen set.

        The policy owns the seen-set bookkeeping (trigger identity for the
        oblivious/restricted variants, frontier classes for the
        semi-oblivious one) and must register the returned triggers so the
        next round does not re-fire them.
        """
        raise NotImplementedError

    # -- fixpoint probe ------------------------------------------------

    def naive_has_remaining(
        self, instance: "Instance", rules: "RuleSet"
    ) -> bool:
        """Existence probe after the step budget, naive engine."""
        raise NotImplementedError

    def delta_has_remaining(
        self, instance: "Instance", rules: "RuleSet", delta: list["Atom"]
    ) -> bool:
        """Existence probe after the step budget, delta engines.

        Existence-only: stops at the first new image, without building,
        sorting or materialising triggers — so the sequential core serves
        every engine (the persistent scheduler is already closed when
        this runs).
        """
        return any_delta_image(rules, instance, delta)

    # -- firing --------------------------------------------------------

    def plan_round(
        self, result: "ChaseResult", triggers: Sequence["Trigger"]
    ) -> RoundPlan:
        """Choose the claim gate and firing mode of one round."""
        return FIRE_ALL

    # -- goal-directed stopping ----------------------------------------

    def begin_run(self, result: "ChaseResult") -> None:
        """Observe the run's result object before the first round.

        Called once per trigger-mode run, after the initial instance copy
        is made but before any round executes — a policy that probes the
        growing instance (e.g. the serving layer's goal-directed
        entailment) anchors its ``delta_since`` watermark here.
        """

    def round_complete(self, result: "ChaseResult") -> bool:
        """Post-round hook; return True to stop the run at this round.

        Evaluated after the round's applications are recorded (and after
        the idle-round fixpoint check).  A True return is a *goal stop*:
        the run ends with ``result.stopped_on_goal`` set and without the
        post-budget fixpoint probe — the instance is a sound chase prefix,
        not necessarily the full chase.  The default never stops, so the
        existing variants are unaffected.  While the round is traced the
        hook's wall-clock lands on the ``probe`` phase.
        """
        return False

    # -- budget wording ------------------------------------------------

    def atom_budget_message(self, max_atoms: int, step: int) -> str:
        return f"{self.variant} exceeded {max_atoms} atoms"

    def step_budget_message(self, max_steps: int) -> str:
        return (
            f"{self.variant} did not terminate within "
            f"{max_steps} {self.step_noun}"
        )


class FixpointOutcome(NamedTuple):
    """What a :meth:`ChaseRunner.fixpoint` run reports back.

    ``complete`` is True only when the frontier genuinely emptied — a set
    fixpoint, not a budget stop.  ``rounds`` counts the expansion rounds
    that ran to completion; ``telemetry`` is the PR-7-style registry
    snapshot of the run (``None`` only when collection was impossible).
    """

    complete: bool
    rounds: int
    telemetry: dict | None = None


class FixpointPolicy(VariantPolicy):
    """A saturation policy over arbitrary items instead of instance atoms.

    The breadth-first loops that do not grow an :class:`Instance` — the
    UCQ piece-rewriter being the canonical case — still share the
    runner's shape: expand a frontier, fold the new items in, stop on an
    empty frontier or a budget.  A :class:`FixpointPolicy` owns the item
    universe (the accumulated set, subsumption/dedup, per-item budgets)
    and the runner owns the loop: round tracing (``plan="expand"``),
    strict/partial budget semantics, and the telemetry scope.

    ``expand`` returns the items that are *new* this round (the next
    frontier); the policy registers them against its accumulated state
    itself.  ``exhausted`` is consulted after each expansion: True means
    a per-round budget (e.g. a disjunct cap) truncated the expansion, so
    the run must stop *incomplete* even if the frontier looks empty.
    """

    variant = "fixpoint"
    step_noun = "rounds"

    def expand(self, frontier: list) -> list:
        """One breadth round: the new items reachable from ``frontier``."""
        raise NotImplementedError

    def exhausted(self) -> bool:
        """True when a mid-round budget truncated the last expansion."""
        return False


class ChaseRunner:
    """The saturation loop every chase variant and closure runs through.

    One runner serves one run: it resolves the engine, owns the persistent
    scheduler's lifecycle (and through it the worker pool's), executes the
    per-round enumerate → gate → fire → record cycle, enforces the atom
    and step budgets with strict/partial semantics, and detects the
    fixpoint.  Everything variant-specific is delegated to the
    :class:`VariantPolicy`.

    Parameters
    ----------
    policy:
        The per-run strategy instance.
    engine:
        A registered engine name or an explicit :class:`EngineConfig`.
    max_steps:
        The level/round budget (the policy's ``step_noun`` names it).
    max_atoms:
        Abort (or raise, with ``strict=True``) when the instance outgrows
        this budget mid-round.
    strict:
        When True, exceeding a budget raises
        :class:`~repro.errors.ChaseBudgetExceeded` instead of returning
        the partial result.
    supply:
        The run's fresh-null supply; defaults to a new supply with the
        policy's prefix.
    trace:
        An optional :class:`~repro.obs.trace.RunTrace`.  When given, the
        runner emits one structured record per round — disjoint phase
        timers (enumerate/gate/fire/record/sync/probe), trigger and
        new-atom counts, the round plan, per-shard routing weights, and
        transport byte / worker-time deltas — plus a run header and a
        final summary.  Tracing never changes results: the engine hooks
        are no-ops while no round is active.
    """

    def __init__(
        self,
        policy: VariantPolicy,
        engine: str | EngineConfig = "delta",
        *,
        max_steps: int,
        max_atoms: int,
        strict: bool = False,
        supply: FreshSupply | None = None,
        trace: RunTrace | None = None,
    ):
        self.policy = policy
        self.config = resolve_engine(engine)
        self.max_steps = max_steps
        self.max_atoms = max_atoms
        self.strict = strict
        self.supply = supply or FreshSupply(prefix=policy.supply_prefix)
        self.trace = trace
        self._seen_revision = 0
        self._scheduler: RoundScheduler | None = None
        self._used = False

    def _begin_trace(self, mode: str) -> None:
        if self.trace is not None:
            self.trace.begin_run(
                variant=self.policy.variant,
                engine=self.config.name,
                mode=mode,
                workers=self.config.workers,
                shards=self.config.shard_count,
                max_steps=self.max_steps,
                max_atoms=self.max_atoms,
            )

    # ------------------------------------------------------------------
    # Trigger-mode runs (the three chase variants)
    # ------------------------------------------------------------------

    def run(self, instance: "Instance", rules: "RuleSet") -> "ChaseResult":
        """Run the policy's chase from ``instance`` under ``rules``.

        Returns the :class:`~repro.chase.result.ChaseResult` with full
        timestamps and provenance; all engines produce bit-identical
        results (same atoms, levels, null names, provenance records and
        budget-stop supply positions) for every worker/shard count.

        The run executes inside a :meth:`MetricsRegistry.collect
        <repro.obs.registry.MetricsRegistry.collect>` scope of the
        default registry; the counter deltas it isolates land on
        ``result.telemetry`` (also on the strict-mode partial result).
        """
        from repro.chase.result import ChaseResult

        self._claim_run()
        result = ChaseResult(instance)
        self.policy.begin_run(result)
        self._begin_trace("trigger")
        try:
            with default_registry().collect() as scope:
                self._run_rounds(result, rules)
        finally:
            result.telemetry = {
                "schema_version": TRACE_SCHEMA_VERSION,
                "registry": scope.delta,
            }
            if self.trace is not None:
                self.trace.finish_run(
                    terminated=result.terminated, **result.statistics()
                )
        return result

    def _run_rounds(self, result: "ChaseResult", rules: "RuleSet") -> None:
        """The per-round loop of a trigger-mode run.

        Mutates ``result`` in place (levels, termination flag) so every
        stop path — fixpoint, budget, strict raise — leaves it
        consistent for the :meth:`run` wrapper to finalize.
        """
        policy = self.policy
        trace = self.trace
        self._open()
        try:
            for step in range(self.max_steps):
                recorder = None
                if trace is not None:
                    recorder = trace.begin_round(step + 1)
                    atoms_before = len(result.instance)
                    sent_before = TRANSPORT_STATS.bytes_sent
                    received_before = TRANSPORT_STATS.bytes_received
                    worker_before = TRANSPORT_STATS.worker_totals()
                triggers_count = 0
                applied = 0
                try:
                    if recorder is not None:
                        with recorder.outer_phase("enumerate"):
                            triggers = self._new_triggers(
                                result.instance, rules
                            )
                    else:
                        triggers = self._new_triggers(result.instance, rules)
                    triggers_count = len(triggers)
                    if policy.stop_on_empty_round and not triggers:
                        result.terminated = True
                        result.levels_completed = step
                        return
                    plan = policy.plan_round(result, triggers)
                    if recorder is not None:
                        recorder.plan = (
                            "split"
                            if plan.split
                            else "interleaved"
                            if plan.interleaved
                            else "batched"
                        )
                        with recorder.outer_phase("fire"):
                            outcome = fire_round(
                                result,
                                triggers,
                                self.supply,
                                level=step + 1,
                                max_atoms=self.max_atoms,
                                claim=plan.claim,
                                interleaved=plan.interleaved,
                                split=plan.split,
                                scheduler=self._scheduler,
                            )
                    else:
                        outcome = fire_round(
                            result,
                            triggers,
                            self.supply,
                            level=step + 1,
                            max_atoms=self.max_atoms,
                            claim=plan.claim,
                            interleaved=plan.interleaved,
                            split=plan.split,
                            scheduler=self._scheduler,
                        )
                    applied = outcome.applied
                    if outcome.budget_exceeded:
                        result.levels_completed = step
                        if self.strict:
                            raise ChaseBudgetExceeded(
                                policy.atom_budget_message(
                                    self.max_atoms, step + 1
                                ),
                                partial_result=result,
                            )
                        return
                    result.levels_completed = step + 1
                    if policy.stop_on_idle_round and not outcome.applied:
                        result.terminated = True
                        return
                    if recorder is not None:
                        with recorder.outer_phase("probe"):
                            goal_stop = policy.round_complete(result)
                    else:
                        goal_stop = policy.round_complete(result)
                    if goal_stop:
                        result.stopped_on_goal = True
                        return
                finally:
                    if recorder is not None:
                        worker_after = TRANSPORT_STATS.worker_totals()
                        trace.end_round(
                            recorder,
                            triggers=triggers_count,
                            applied=applied,
                            new_atoms=len(result.instance) - atoms_before,
                            transport={
                                "bytes_sent": (
                                    TRANSPORT_STATS.bytes_sent - sent_before
                                ),
                                "bytes_received": (
                                    TRANSPORT_STATS.bytes_received
                                    - received_before
                                ),
                            },
                            worker={
                                key: worker_after[key] - worker_before[key]
                                for key in worker_after
                            },
                        )
        finally:
            self._close()

        if policy.probe_fixpoint and not self._has_remaining(
            result.instance, rules
        ):
            result.terminated = True
        elif self.strict:
            raise ChaseBudgetExceeded(
                policy.step_budget_message(self.max_steps),
                partial_result=result,
            )

    def _new_triggers(
        self, instance: "Instance", rules: "RuleSet"
    ) -> list["Trigger"]:
        """Enumerate one round's candidate triggers on the run's engine."""
        from repro.chase.trigger import new_triggers_of, parallel_new_triggers_of

        policy = self.policy
        if self.config.is_naive:
            return policy.naive_new_triggers(instance, rules)
        delta = instance.delta_since(self._seen_revision)
        self._seen_revision = instance.revision
        recorder = active_round()
        if recorder is not None:
            recorder.delta_atoms = len(delta)
        if self._scheduler is not None:
            enumerated: Iterable["Trigger"] = parallel_new_triggers_of(
                instance, rules, delta, self._scheduler
            )
        else:
            enumerated = new_triggers_of(instance, rules, delta)
        return policy.filter_new(enumerated)

    def _has_remaining(self, instance: "Instance", rules: "RuleSet") -> bool:
        """The post-budget fixpoint probe."""
        if self.config.is_naive:
            return self.policy.naive_has_remaining(instance, rules)
        delta = instance.delta_since(self._seen_revision)
        return self.policy.delta_has_remaining(instance, rules, delta)

    # ------------------------------------------------------------------
    # Derivation-mode runs (the Datalog closure)
    # ------------------------------------------------------------------

    def saturate(self, instance: "Instance", rules: "RuleSet") -> "Instance":
        """Run a derivation-mode saturation to its set fixpoint.

        The loop of the semi-naive Datalog closure: each round derives the
        head atoms whose body uses at least one delta atom — with no
        trigger identity or provenance, which is all a saturation needs —
        and folds the new ones in.  Budget violations always raise (a
        closure has no meaningful partial-result mode); the overgrown or
        unconverged instance rides along as ``partial_result``.

        With a :class:`~repro.obs.trace.RunTrace` attached each round is
        recorded with ``plan="derive"``: the derivation sweep lands on
        the ``enumerate`` phase, the fold-in of new atoms on ``record``.
        """
        self._claim_run()
        policy = self.policy
        total = instance.copy()
        trace = self.trace
        self._begin_trace("derivation")
        self._open()
        try:
            for step in range(self.max_steps):
                recorder = None
                if trace is not None:
                    recorder = trace.begin_round(step + 1)
                    recorder.plan = "derive"
                    sent_before = TRANSPORT_STATS.bytes_sent
                    received_before = TRANSPORT_STATS.bytes_received
                    worker_before = TRANSPORT_STATS.worker_totals()
                derived_count = 0
                new_count = 0
                try:
                    if recorder is not None:
                        with recorder.outer_phase("enumerate"):
                            derived = self._derive(total, rules)
                        start = time.perf_counter()
                        new_atoms = {a for a in derived if a not in total}
                        if new_atoms:
                            total.update(new_atoms)
                        recorder.add_phase(
                            "record", time.perf_counter() - start
                        )
                    else:
                        derived = self._derive(total, rules)
                        new_atoms = {a for a in derived if a not in total}
                        if new_atoms:
                            total.update(new_atoms)
                    derived_count = len(derived)
                    new_count = len(new_atoms)
                finally:
                    if recorder is not None:
                        worker_after = TRANSPORT_STATS.worker_totals()
                        trace.end_round(
                            recorder,
                            triggers=derived_count,
                            applied=new_count,
                            new_atoms=new_count,
                            transport={
                                "bytes_sent": (
                                    TRANSPORT_STATS.bytes_sent - sent_before
                                ),
                                "bytes_received": (
                                    TRANSPORT_STATS.bytes_received
                                    - received_before
                                ),
                            },
                            worker={
                                key: worker_after[key] - worker_before[key]
                                for key in worker_after
                            },
                        )
                if not new_atoms:
                    if trace is not None:
                        trace.finish_run(
                            terminated=True, atoms=len(total), rounds=step
                        )
                    return total
                if len(total) > self.max_atoms:
                    raise ChaseBudgetExceeded(
                        policy.atom_budget_message(self.max_atoms, 0),
                        partial_result=total,
                    )
        finally:
            self._close()
        raise ChaseBudgetExceeded(
            policy.step_budget_message(self.max_steps),
            partial_result=total,
        )

    def _derive(self, total: "Instance", rules: "RuleSet") -> set["Atom"]:
        """One derivation round on the run's engine.

        ``naive`` re-derives from the whole instance; ``delta`` runs the
        batched derivation inline on one view of the round's delta (no
        trigger objects, no canonical ordering); ``persistent`` shards
        the same derivation across the scheduler.
        """
        if self.config.is_naive:
            return derive_round_atoms(rules, total, total)
        delta = total.delta_since(self._seen_revision)
        self._seen_revision = total.revision
        recorder = active_round()
        if recorder is not None:
            recorder.delta_atoms = len(delta)
        if self._scheduler is not None:
            return self._scheduler.derive_atoms(total, rules, delta)
        return derive_round_atoms(rules, total, as_delta_instance(delta))

    # ------------------------------------------------------------------
    # Fixpoint-mode runs (non-instance breadth loops)
    # ------------------------------------------------------------------

    def fixpoint(self, frontier: Iterable) -> FixpointOutcome:
        """Run a :class:`FixpointPolicy` breadth loop to its fixpoint.

        The frontier items are opaque to the runner (CQs for the
        rewriter); each round hands the current frontier to
        ``policy.expand`` and adopts the returned new items as the next
        one.  An empty expansion is the fixpoint; ``policy.exhausted()``
        turning True is a mid-round budget stop; running out of
        ``max_steps`` rounds is a depth stop.  Budget stops return an
        incomplete :class:`FixpointOutcome` — or raise
        :class:`~repro.errors.ChaseBudgetExceeded` under ``strict=True``
        (unless the policy already raised a more specific error inside
        ``expand``, which wins).

        No scheduler is opened: expansion is pure frontier computation,
        so the engine backends have nothing to shard.  Round tracing and
        the telemetry collect scope work exactly as in the other modes;
        the expansion sweep lands on the ``enumerate`` phase with
        ``plan="expand"`` and ``delta_atoms`` carrying the frontier size.
        """
        self._claim_run()
        trace = self.trace
        self._begin_trace("fixpoint")
        current = list(frontier)
        try:
            with default_registry().collect() as scope:
                outcome = self._fixpoint_rounds(current)
        finally:
            if trace is not None and trace.summary is None:
                trace.finish_run(terminated=False, rounds=self.max_steps)
        return outcome._replace(
            telemetry={
                "schema_version": TRACE_SCHEMA_VERSION,
                "registry": scope.delta,
            }
        )

    def _fixpoint_rounds(self, current: list) -> FixpointOutcome:
        policy = self.policy
        trace = self.trace
        for step in range(self.max_steps):
            recorder = None
            if trace is not None:
                recorder = trace.begin_round(step + 1)
                recorder.plan = "expand"
                recorder.delta_atoms = len(current)
            new_count = 0
            try:
                if recorder is not None:
                    with recorder.outer_phase("enumerate"):
                        new = policy.expand(current)
                else:
                    new = policy.expand(current)
                new_count = len(new)
            finally:
                if recorder is not None:
                    trace.end_round(
                        recorder,
                        triggers=len(current),
                        applied=new_count,
                        new_atoms=new_count,
                    )
            if policy.exhausted():
                if self.strict:
                    raise ChaseBudgetExceeded(
                        policy.atom_budget_message(self.max_atoms, step + 1)
                    )
                if trace is not None:
                    trace.finish_run(terminated=False, rounds=step + 1)
                return FixpointOutcome(False, step + 1)
            if not new:
                if trace is not None:
                    trace.finish_run(terminated=True, rounds=step)
                return FixpointOutcome(True, step)
            current = new
        if self.strict:
            raise ChaseBudgetExceeded(
                policy.step_budget_message(self.max_steps)
            )
        if trace is not None:
            trace.finish_run(terminated=False, rounds=self.max_steps)
        return FixpointOutcome(False, self.max_steps)

    # ------------------------------------------------------------------
    # Scheduler lifecycle
    # ------------------------------------------------------------------

    def _claim_run(self) -> None:
        """Reject reuse: one runner serves one run.

        The revision watermark and the policy's per-run state (seen sets,
        fired frontier classes) are meaningless against a second instance,
        so a reused runner would silently enumerate a wrong delta —
        raising is the only safe behavior.
        """
        if self._used:
            raise ChaseError(
                "a ChaseRunner serves exactly one run; construct a new "
                "runner (and policy) per chase or closure"
            )
        self._used = True

    def _open(self) -> None:
        if self.config.is_persistent and self._scheduler is None:
            self._scheduler = RoundScheduler(self.config)

    def _close(self) -> None:
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None
