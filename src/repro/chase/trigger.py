"""Triggers: applicable rule instances over an instance (Section 2.2).

A trigger is a pair ``⟨ρ, h⟩`` of a rule and a homomorphism from its body
into an instance.  The *output* of a trigger extends ``h`` by mapping each
existential variable to a fresh null and instantiates the head.

Besides the full enumeration ``triggers_of(I, R)`` the module provides the
semi-naive ``new_triggers_of(I, R, Δ)``: only triggers whose body image
uses at least one atom of the delta ``Δ`` — exactly the triggers that are
*new* at a chase level when ``Δ`` is the set of atoms the previous level
produced (the paper's ``Ch_{n+1}`` is built from triggers new at level
``n``, so this is the definition computed literally instead of by
re-matching everything and discarding the already-fired majority).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.engine.core import as_delta_instance, delta_images, image_sort_key
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import (
    MATCHER_STATS,
    _candidates,
    _match_atom,
    homomorphisms,
)
from repro.logic.instances import Instance
from repro.logic.substitutions import Substitution
from repro.logic.terms import FreshSupply, Null, Term
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


class Trigger:
    """A rule paired with a homomorphism from its body into some instance.

    Two triggers are equal when they share the rule and agree on the body
    variables — the identity used by the oblivious chase to fire each
    trigger exactly once.  A trigger stores that identity, the body image
    ``h(x̄)`` along the rule's canonical body-variable order; the
    homomorphism itself (:attr:`mapping`) is rebuilt from it on demand, so
    the enumeration paths, which build triggers straight from images
    (:meth:`from_image`), allocate no substitution per trigger.
    """

    __slots__ = ("rule", "_image", "_mapping", "_ground_output")

    def __init__(self, rule: Rule, mapping: Substitution):
        apply = mapping.apply_term
        self.rule = rule
        self._image = tuple(apply(v) for v in rule.body_variable_order())
        self._mapping: Substitution | None = None
        # For existential-free rules the output is fully determined by the
        # image; a claim gate that already instantiated the head (a
        # custom policy's pre-computing gate) may park it here, and both
        # :meth:`output` and the sharded firing path reuse the parked
        # atoms instead of instantiating a second time.
        self._ground_output: set[Atom] | None = None

    @classmethod
    def from_image(cls, rule: Rule, image: tuple[Term, ...]) -> "Trigger":
        """The trigger of ``rule`` whose body image is ``image``."""
        trigger = cls.__new__(cls)
        trigger.rule = rule
        trigger._image = image
        trigger._mapping = None
        trigger._ground_output = None
        return trigger

    @property
    def mapping(self) -> Substitution:
        """The body homomorphism ``h``, restricted to the body variables."""
        mapping = self._mapping
        if mapping is None:
            mapping = Substitution._from_clean(
                {
                    v: t
                    for v, t in zip(self.rule.body_variable_order(), self._image)
                    if v != t
                }
            )
            self._mapping = mapping
        return mapping

    def image(self) -> tuple[Term, ...]:
        """``h(x̄)`` along the rule's canonical body-variable order.

        Together with the rule this is the trigger's identity; it also
        serves as the deterministic sort key among triggers of one rule.
        """
        return self._image

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Trigger)
            and self.rule == other.rule
            and self._image == other._image
        )

    def __hash__(self) -> int:
        return hash((self.rule, self._image))

    def __repr__(self) -> str:
        return f"Trigger({self.rule!s}, {self.mapping!r})"

    def frontier_image(self) -> dict:
        """Return ``h(fr(ρ))`` as a mapping frontier variable -> term."""
        rule = self.rule
        return dict(zip(rule.frontier_order(), rule.frontier_of(self._image)))

    def output(
        self, supply: FreshSupply
    ) -> tuple[set[Atom], dict[Term, Null]]:
        """Instantiate the head with fresh nulls for existential variables.

        Returns the produced atoms and the existential-variable-to-null
        mapping used.
        """
        rule = self.rule
        existential = rule.existential_order()
        if not existential:
            cached = self._ground_output
            if cached is not None:
                return cached, {}
            return rule.instantiate_image(self._image), {}
        nulls = tuple([supply.null() for _ in existential])
        return (
            rule.instantiate_image(self._image, nulls),
            dict(zip(existential, nulls)),
        )

    def is_satisfied_in(self, instance: Instance) -> bool:
        """True when ``h`` extends to a homomorphism of the head into
        ``instance`` — the restricted-chase applicability test."""
        seed = self.frontier_image()
        for _ in homomorphisms(self.rule.head, instance, seed=seed):
            return True
        return False

    def is_satisfied_using_index(self, instance: Instance) -> bool:
        """Index-seeded variant of :meth:`is_satisfied_in` (same boolean).

        The restricted chase runs this once per new existential trigger —
        on its all-existential interleaved rounds and for the existential
        remainder of its split rounds (whose existential-free triggers
        are instead instantiated and probed up front, worker-side on a
        replica backend — see :mod:`repro.chase.restricted`), so the
        generic matcher's per-call setup dominated; the fast paths cut
        it:

        * Datalog rule — the body homomorphism grounds the whole head, so
          satisfaction is plain set membership per head atom.
        * single-atom head — candidates come straight from the most
          selective positional-index bucket of the frontier image and are
          pattern-checked in place (exactly the matcher's ``_match_atom``,
          minus the search-frame and substitution machinery).
        * multi-atom head — the seeded backtracking matcher, as before.
        """
        rule = self.rule
        image = self._image
        if not rule.existential_order():
            return all(a in instance for a in rule.head_atoms(image))
        head = rule.head
        if len(head) == 1:
            (head_atom,) = head
            seed = self.frontier_image()
            stats = MATCHER_STATS
            stats.searches += 1
            for candidate in _candidates(head_atom, instance, seed):
                stats.candidates += 1
                binding = dict(seed)
                if _match_atom(head_atom, candidate, binding, None) is not None:
                    return True
            return False
        return self.is_satisfied_in(instance)


def triggers_of(
    instance: Instance, rules: RuleSet | list[Rule]
) -> Iterator[Trigger]:
    """Enumerate ``triggers(I, R)``: all rule/body-homomorphism pairs.

    Deterministic: rules in rule-set order, homomorphisms in index order.
    """
    for rule in rules:
        for hom in homomorphisms(rule.body, instance):
            yield Trigger(rule, hom)


def new_triggers_of(
    instance: Instance,
    rules: RuleSet | list[Rule],
    delta: Iterable[Atom] | Instance,
) -> Iterator[Trigger]:
    """Enumerate the triggers using at least one atom of ``delta``.

    Factorised enumeration via the shared delta core
    (:func:`repro.engine.core.delta_images`): each connected body
    component is matched once against the delta (pivot decomposition) and,
    where a product needs it, once against the full instance; the
    triggers are built from the products of the components' images, each
    image exactly once.

    Deterministic: rules in rule-set order, then triggers of each rule
    sorted by their body-variable image.  The chase engines rely on this
    canonical order being *independent of how the triggers were found*, so
    the delta, naive and persistent engines fire in the same order and
    produce bit-identical results.
    """
    delta_inst = as_delta_instance(delta)
    if not len(delta_inst):
        return
    from_image = Trigger.from_image
    for rule in rules:
        images = sorted(
            delta_images(rule, instance, delta_inst), key=image_sort_key
        )
        for image in images:
            yield from_image(rule, image)


def parallel_new_triggers_of(
    instance: Instance,
    rules: RuleSet | list[Rule],
    delta: Iterable[Atom] | Instance,
    scheduler,
) -> list[Trigger]:
    """Sharded-parallel :func:`new_triggers_of` — same triggers, same order.

    ``scheduler`` is a :class:`repro.engine.scheduler.RoundScheduler`; it
    hash-shards the delta, enumerates every shard against the full
    instance on its worker pool, and merges the images back as a set
    union, so the returned list is identical to the sequential
    enumeration for every worker/shard count.
    """
    rule_list = list(rules)
    delta_atoms = (
        delta.atoms() if isinstance(delta, Instance) else delta
    )
    per_rule = scheduler.enumerate_images(instance, rule_list, delta_atoms)
    from_image = Trigger.from_image
    triggers: list[Trigger] = []
    for rule, images in zip(rule_list, per_rule):
        triggers.extend(from_image(rule, image) for image in images)
    return triggers


def naive_new_triggers_of(
    instance: Instance,
    rules: RuleSet | list[Rule],
    fired: set[Trigger],
) -> list[Trigger]:
    """Reference enumeration of the not-yet-fired triggers.

    Re-matches every rule body against the whole instance and discards the
    already-fired triggers — the pre-incremental engine, kept as the
    ground truth the delta engine is tested against.  Output order matches
    :func:`new_triggers_of` (per rule, sorted by image).
    """
    fresh: list[Trigger] = []
    for rule in rules:
        batch = [
            t
            for t in (
                Trigger(rule, hom)
                for hom in homomorphisms(rule.body, instance)
            )
            if t not in fired
        ]
        batch.sort(key=Trigger.image)
        fresh.extend(batch)
    return fresh
