"""Batched trigger firing: apply a whole round in one recording pass.

The sequential engines interleave three per-trigger steps — claim check,
head instantiation, provenance recording.  :func:`fire_round` keeps the
canonical firing order (so results stay bit-identical) but splits the
round into a claim/instantiate pass and one amortized
:meth:`~repro.chase.result.ChaseResult.record_round` pass, which binds the
provenance structures once per round instead of once per trigger.

A claim that must observe mid-round growth cannot batch blindly:
``interleaved=True`` falls back to per-trigger recording while keeping
the budget/claim plumbing shared with the batched rounds.  Between the
two sits the restricted chase's *split* round (``split=True``): the
round's existential-free triggers have fully determined ground outputs,
so they are instantiated up front (worker-side on a replica backend, via
the ``probe`` protocol command — one packed task buffer and one packed
reply per worker slice, see :mod:`repro.engine.wire`) while the claims
themselves — membership
of the ground head for existential-free triggers, the satisfaction
check for the existential remainder — still resolve lazily inside one
canonical-order :meth:`~repro.chase.result.ChaseResult.record_round`
pass, observing mid-round growth exactly like the interleaved reference
(see :mod:`repro.chase.restricted`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.obs.trace import RoundRecorder, active_round

if TYPE_CHECKING:  # imported for annotations only: keeps engine below chase
    from repro.chase.result import ChaseResult
    from repro.chase.trigger import Trigger
    from repro.logic.terms import FreshSupply


@dataclass(frozen=True)
class RoundOutcome:
    """What one fired round did.

    ``applied`` counts recorded trigger applications;
    ``budget_exceeded`` is True when the atom budget was hit mid-round
    (the round stopped at the same trigger the sequential engine would
    have stopped at).
    """

    applied: int
    budget_exceeded: bool


def _timed_gate(
    claim: Callable[["Trigger"], bool], recorder: "RoundRecorder"
) -> Callable[["Trigger"], bool]:
    """Wrap a claim gate so each call's wall-clock lands on ``gate``.

    Only installed while a round is traced; the wrapped claim flows
    through every non-interleaved path unchanged (inline stream and
    sharded chunks alike), so gate time is attributed once no matter
    which backend fires the round.
    """
    perf = time.perf_counter
    add_phase = recorder.add_phase

    def gated(trigger: "Trigger") -> bool:
        start = perf()
        try:
            return claim(trigger)
        finally:
            add_phase("gate", perf() - start)

    return gated


def _split_round_stream(
    triggers: Sequence["Trigger"],
    result: "ChaseResult",
    supply: "FreshSupply",
    recorder: "RoundRecorder | None" = None,
):
    """The inline split-round stream: lazy per-trigger restricted claims.

    Yields ``(trigger, (output_atoms, existential_map))`` pairs in
    canonical order for :meth:`~repro.chase.result.ChaseResult.record_round`
    to pull; each pair is recorded before the next claim runs, so both
    claim flavors observe mid-round growth exactly like the interleaved
    reference — the difference is purely the amortized recording (and
    that an existential-free trigger's head is instantiated once, as
    both the claim probe and the output).  With a ``recorder`` the
    satisfaction checks — the split round's claim gate — are timed into
    the ``gate`` phase.
    """
    instance = result.instance
    if recorder is None:
        for trigger in triggers:
            if trigger.rule.existential_order():
                if trigger.is_satisfied_using_index(instance):
                    continue
                yield trigger, trigger.output(supply)
            else:
                head = trigger.rule.instantiate_image(trigger.image())
                if all(a in instance for a in head):
                    continue
                yield trigger, (head, {})
        return
    perf = time.perf_counter
    add_phase = recorder.add_phase
    for trigger in triggers:
        if trigger.rule.existential_order():
            start = perf()
            satisfied = trigger.is_satisfied_using_index(instance)
            add_phase("gate", perf() - start)
            if satisfied:
                continue
            yield trigger, trigger.output(supply)
        else:
            head = trigger.rule.instantiate_image(trigger.image())
            start = perf()
            satisfied = all(a in instance for a in head)
            add_phase("gate", perf() - start)
            if satisfied:
                continue
            yield trigger, (head, {})


def fire_round(
    result: "ChaseResult",
    triggers: Sequence["Trigger"],
    supply: "FreshSupply",
    *,
    level: int,
    max_atoms: int,
    claim: Callable[["Trigger"], bool] | None = None,
    interleaved: bool = False,
    split: bool = False,
    scheduler=None,
) -> RoundOutcome:
    """Fire ``triggers`` in canonical order into ``result``.

    Parameters
    ----------
    claim:
        Per-trigger gate evaluated in firing order; return False to skip.
        May be stateful (the semi-oblivious frontier-class dedup) — it is
        called exactly once per trigger, in order, and never past a
        mid-round budget stop, on every firing path.
    interleaved:
        When True each application is recorded before the next trigger's
        claim runs, so claims observe mid-round growth (the restricted
        chase's all-existential rounds).
        When False the round streams through one amortized
        :meth:`~repro.chase.result.ChaseResult.record_round` pass — valid
        whenever claims are independent of the instance.  The stream is
        lazy, so on a budget hit no further trigger is claimed or
        instantiated and the supply stops at exactly the same null the
        sequential engines stop at — bit-identical either way.
    split:
        The restricted chase's mixed/existential-free rounds: claims are
        the satisfaction gate itself, resolved lazily per trigger inside
        one ``record_round`` pass (``_split_round_stream``), with the
        existential remainder interleaved in place.  On a worker pool
        the existential-free triggers' instantiation and round-start
        satisfaction probes fan out across the pool first
        (:meth:`RoundScheduler.fire_split_round
        <repro.engine.scheduler.RoundScheduler.fire_split_round>`).
        ``claim`` is ignored — the split gate owns claiming.
    scheduler:
        An optional :class:`~repro.engine.scheduler.RoundScheduler`.  When
        it has a worker pool to fan out to and the round is not
        interleaved, head instantiation fans
        out across the pool via :meth:`RoundScheduler.fire_round
        <repro.engine.scheduler.RoundScheduler.fire_round>` — same claims
        (in budget-safe chunks, so stateful claims stay lazy and
        exactly-once), same null names, same provenance order, same
        budget-stop position.  Interleaved rounds ignore it: their claims
        read the instance as it grows, which is inherently sequential.

    The caller owns ``levels_completed`` and the strict-mode raise; this
    function only reports the outcome.
    """
    recorder = active_round()
    if recorder is not None and claim is not None and not interleaved:
        claim = _timed_gate(claim, recorder)
    if scheduler is not None and not interleaved:
        if split:
            outcome = scheduler.fire_split_round(
                result, triggers, supply, level=level, max_atoms=max_atoms
            )
        else:
            outcome = scheduler.fire_round(
                result,
                triggers,
                supply,
                level=level,
                max_atoms=max_atoms,
                claim=claim,
            )
        if outcome is not None:
            return outcome
    if split and not interleaved:
        applied, exceeded = result.record_round(
            _split_round_stream(triggers, result, supply, recorder),
            level=level,
            max_atoms=max_atoms,
        )
        return RoundOutcome(applied, exceeded)
    applied = 0
    if interleaved:
        if recorder is not None:
            return _interleaved_traced(
                result, triggers, supply,
                level=level, max_atoms=max_atoms, claim=claim,
                recorder=recorder,
            )
        for trigger in triggers:
            if claim is not None and not claim(trigger):
                continue
            output_atoms, existential_map = trigger.output(supply)
            result.record_application(
                trigger,
                level=level,
                created_nulls=existential_map.values(),
                output_atoms=output_atoms,
            )
            applied += 1
            if len(result.instance) > max_atoms:
                return RoundOutcome(applied, True)
        return RoundOutcome(applied, False)

    if claim is None:
        applications = ((t, t.output(supply)) for t in triggers)
    else:
        applications = (
            (t, t.output(supply)) for t in triggers if claim(t)
        )
    applied, exceeded = result.record_round(
        applications, level=level, max_atoms=max_atoms
    )
    return RoundOutcome(applied, exceeded)


def _interleaved_traced(
    result: "ChaseResult",
    triggers: Sequence["Trigger"],
    supply: "FreshSupply",
    *,
    level: int,
    max_atoms: int,
    claim: Callable[["Trigger"], bool] | None,
    recorder: "RoundRecorder",
) -> RoundOutcome:
    """The interleaved loop with per-trigger gate/record attribution.

    Identical semantics to the untraced loop (same claim sequence, same
    recording, same budget stop); head instantiation stays unattributed
    and lands in the round's outer ``fire`` phase.
    """
    perf = time.perf_counter
    add_phase = recorder.add_phase
    applied = 0
    for trigger in triggers:
        if claim is not None:
            start = perf()
            keep = claim(trigger)
            add_phase("gate", perf() - start)
            if not keep:
                continue
        output_atoms, existential_map = trigger.output(supply)
        start = perf()
        result.record_application(
            trigger,
            level=level,
            created_nulls=existential_map.values(),
            output_atoms=output_atoms,
        )
        add_phase("record", perf() - start)
        applied += 1
        if len(result.instance) > max_atoms:
            return RoundOutcome(applied, True)
    return RoundOutcome(applied, False)
