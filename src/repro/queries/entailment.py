"""Query entailment: ``I ⊨ Q(t̄)`` and the injective ``I ⊨inj Q(t̄)``.

Certain-answer semantics ``⟨R, I⟩ ⊨ Q(t̄)`` is served by the front door
:func:`repro.serving.answer` (goal-directed chase, UCQ rewriting, or
their hybrid — with budgets, engine selection and verdicts).  The
instance-level checks below are the evaluation primitives serving builds
on; each accepts an optional ``trace`` recording the probe as one
``plan="probe"`` round, so their cost shows up in the same structured
traces as chase rounds.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.logic.homomorphisms import find_homomorphism, homomorphisms
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.logic.terms import Term
from repro.obs.trace import RunTrace
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UCQ


def _seed_for(
    query: ConjunctiveQuery, bindings: Sequence[Term]
) -> dict | None:
    """Build the answer-variable seed, or None when inconsistent.

    An empty ``bindings`` leaves all answer variables free (the query is
    then evaluated as if Boolean, e.g. to enumerate its answers).
    """
    if not bindings:
        return {}
    if len(bindings) != len(query.answers):
        raise ValueError(
            f"expected {len(query.answers)} binding(s), got {len(bindings)}"
        )
    seed: dict = {}
    for variable, value in zip(query.answers, bindings):
        if variable in seed and seed[variable] != value:
            return None
        seed[variable] = value
    return seed


def entails_cq(
    instance: Instance,
    query: ConjunctiveQuery,
    bindings: Sequence[Term] = (),
    injective: bool = False,
    *,
    trace: RunTrace | None = None,
) -> bool:
    """``I ⊨ q(t̄)`` (or ``⊨inj`` with ``injective=True``).

    With a ``trace``, the probe lands as one ``plan="probe"`` round
    record (the search time on the ``enumerate`` phase), uniform with
    the chase entry points' round tracing.
    """
    seed = _seed_for(query, bindings)
    if seed is None:
        return False
    if trace is None:
        return (
            find_homomorphism(
                query.atoms, instance, seed=seed, injective=injective
            )
            is not None
        )
    recorder = trace.begin_round(len(trace.rounds) + 1)
    recorder.plan = "probe"
    found = False
    try:
        with recorder.outer_phase("enumerate"):
            found = (
                find_homomorphism(
                    query.atoms, instance, seed=seed, injective=injective
                )
                is not None
            )
    finally:
        trace.end_round(
            recorder,
            triggers=len(query.atoms),
            applied=int(found),
            new_atoms=0,
        )
    return found


def entails_ucq(
    instance: Instance,
    query: UCQ,
    bindings: Sequence[Term] = (),
    injective: bool = False,
    *,
    trace: RunTrace | None = None,
) -> bool:
    """``I ⊨ Q(t̄)``: some disjunct maps (answer variables pinned).

    A disjunct whose answer tuple identifies variables is evaluated on the
    correspondingly identified binding; incompatible bindings simply fail
    for that disjunct.  ``trace`` records one ``plan="probe"`` round per
    disjunct actually probed.
    """
    return any(
        entails_cq(instance, disjunct, bindings, injective=injective, trace=trace)
        for disjunct in query
    )


def answer_homomorphisms(
    instance: Instance,
    query: ConjunctiveQuery,
    bindings: Sequence[Term] = (),
    injective: bool = False,
) -> Iterator[Substitution]:
    """Yield the homomorphisms witnessing ``I ⊨ q(t̄)``."""
    seed = _seed_for(query, bindings)
    if seed is None:
        return
    yield from homomorphisms(
        query.atoms, instance, seed=seed, injective=injective
    )


def answers(
    instance: Instance, query: ConjunctiveQuery
) -> set[tuple[Term, ...]]:
    """All answer tuples of ``query`` over ``instance``."""
    result: set[tuple[Term, ...]] = set()
    for hom in homomorphisms(query.atoms, instance):
        result.add(tuple(hom.apply_term(v) for v in query.answers))
    return result
