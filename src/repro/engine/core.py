"""The unified semi-naive delta core.

One pivot-atom decomposition serves every delta-driven round in the
library: trigger enumeration for the chase variants
(:func:`repro.chase.trigger.new_triggers_of`), sharded enumeration in the
persistent scheduler, and head derivation for the Datalog closure
(:func:`repro.rewriting.datalog.semi_naive_closure`).  Before this module
existed ``rewriting/datalog.py`` carried its own copy of the decomposition
without the positional index; now both layers share this code.

The decomposition: a homomorphism of a rule body into the instance uses at
least one delta atom exactly when some body atom maps into the delta.  For
each body atom in turn (the *pivot*), that atom is matched against the
delta only while the remaining atoms match the full instance through the
positional index.  A homomorphism whose body image touches ``k`` delta
atoms is found by ``k`` pivots; callers deduplicate on their own identity
(trigger image for the chase, the derived atom set for the closure).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.logic.atoms import Atom
from repro.logic.homomorphisms import (
    homomorphisms,
    homomorphisms_with_pivot,
    pivot_bindings,
)
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.rules.rule import Rule


def as_delta_instance(delta: Iterable[Atom] | Instance) -> Instance:
    """Wrap a delta (atom iterable or instance) as a positional-indexed
    instance, so pivot candidates come from an index lookup."""
    if isinstance(delta, Instance):
        return delta
    return Instance(delta, add_top=False)


def delta_homomorphisms(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> Iterator[Substitution]:
    """Homomorphisms of ``rule.body`` into ``instance`` using ≥ 1 delta atom.

    A homomorphism touching ``k`` delta atoms is yielded up to ``k`` times
    (once per pivot); the caller owns deduplication.  When ``delta_inst``
    *is* the instance every homomorphism qualifies and pivoting would
    rediscover each one per body atom, so the plain per-rule enumeration
    (body-size times cheaper) runs instead — in that case each homomorphism
    is yielded exactly once.
    """
    if delta_inst is instance:
        yield from homomorphisms(rule.body, instance)
        return
    body = rule.body
    for pivot in rule.sorted_body():
        candidates = delta_inst.sorted_with_predicate(pivot.predicate)
        if not candidates:
            continue
        yield from homomorphisms_with_pivot(body, instance, pivot, candidates)


def rule_delta_images(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> dict[tuple, Substitution]:
    """Deduplicated body matches of one rule, keyed by canonical image.

    The key is ``h(x̄)`` along ``rule.body_variable_order()`` — the same
    identity :class:`~repro.chase.trigger.Trigger` uses — so merging the
    dicts produced by different delta shards (or different pivots) is a
    plain dict union: equal keys imply equal restricted homomorphisms.
    """
    order = rule.body_variable_order()
    found: dict[tuple, Substitution] = {}
    for hom in delta_homomorphisms(rule, instance, delta_inst):
        apply = hom.apply_term
        image = tuple(apply(v) for v in order)
        if image not in found:
            found[image] = hom
    return found


def derive_delta_atoms(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> set[Atom]:
    """Head instantiations of ``rule`` whose body uses ≥ 1 delta atom.

    Derivation mode of the core, used by the Datalog closure: no trigger
    identity, no canonical ordering — duplicate matches collapse in the
    returned set, which is all a saturation needs.  This is the batched
    hot path: heads are instantiated straight from the matcher's raw
    bindings (:func:`~repro.logic.homomorphisms.pivot_bindings`) — no
    :class:`~repro.chase.trigger.Trigger` objects, no substitution copies,
    no sorting.
    """
    derived: set[Atom] = set()
    head = rule.head
    if delta_inst is instance:
        for hom in homomorphisms(rule.body, instance):
            derived.update(hom.apply_atoms(head))
        return derived
    add = derived.add
    body = rule.body
    for pivot in rule.sorted_body():
        candidates = delta_inst.sorted_with_predicate(pivot.predicate)
        if not candidates:
            continue
        for binding in pivot_bindings(body, instance, pivot, candidates):
            for atom in head:
                add(atom.apply(binding))
    return derived


def derive_round_atoms(
    rules: Iterable[Rule], instance: Instance, delta_inst: Instance
) -> set[Atom]:
    """One derivation round: :func:`derive_delta_atoms` over every rule.

    The whole round of the Datalog closure — run inline by the ``delta``
    engine (one view of the round's delta), per shard by the
    ``persistent`` scheduler, and with ``delta_inst is instance`` by the
    ``naive`` engine's full re-derivation.
    """
    derived: set[Atom] = set()
    for rule in rules:
        derived.update(derive_delta_atoms(rule, instance, delta_inst))
    return derived
