"""The unified semi-naive delta core: factorised, exactly-once enumeration.

One decomposition serves every delta-driven round in the library: trigger
enumeration for the chase variants
(:func:`repro.chase.trigger.new_triggers_of`), sharded enumeration and
derivation in the persistent workers, and head derivation for the Datalog
closure (:func:`repro.rewriting.datalog.semi_naive_closure`).  It is
:func:`body_images`, written over a per-component *matcher*: the
:class:`ObjectMatcher` over object instances, or the workers' id kernel
(:class:`repro.engine.columnar.ColumnarMatcher`) over columnar replicas.

A homomorphism of a rule body is one homomorphism per connected body
component (:meth:`~repro.rules.rule.Rule.body_components`), and it uses a
delta atom exactly when one of its components does.  So each component
``c`` is matched on its own, into image sets along its variables:

* ``new_c`` — the images using ≥ 1 delta atom, by the *pivot*
  decomposition: each atom of ``c`` in turn is matched against the delta
  only while the rest of ``c`` matches the full instance through the
  positional index.  A pivot drops the matches that map an earlier pivot
  into the delta, since that pivot found them already.
* ``full_c`` — all images, computed only when a product needs them;
  ``old_c = full_c − new_c``.

The round's body images are ``⋃_i old_<i × new_i × full_>i``: the blocks
are disjoint (block ``i`` holds the images whose first delta-touching
component is ``i``), so every image comes out exactly once and callers
need no deduplication.  A connected body is a single component, for which
this is the plain pivot decomposition.  Images are tuples along
:meth:`~repro.rules.rule.Rule.body_variable_order` — the identity the
chase's triggers use — built from the matcher's raw bindings without one
:class:`~repro.logic.substitutions.Substitution` per match.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from repro.logic.atoms import Atom
from repro.logic.homomorphisms import bindings, pivot_bindings
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.terms import Term
from repro.rules.rule import BodyComponent, Rule


def as_delta_instance(delta: Iterable[Atom] | Instance) -> Instance:
    """Wrap a delta (atom iterable or instance) as a positional-indexed
    instance, so pivot candidates come from an index lookup."""
    if isinstance(delta, Instance):
        return delta
    return Instance(delta, add_top=False)


def image_sort_key(image: tuple[Term, ...]) -> tuple:
    """Sort key of a body image: the same order as comparing the term
    tuples themselves (``Term.__lt__``), without a Python-level comparison
    per term pair."""
    return tuple([(t._rank, t.name) for t in image])


class ObjectMatcher:
    """The per-component matcher of :func:`body_images` over object
    instances: the library's homomorphism matcher
    (:mod:`repro.logic.homomorphisms`), with images read off its raw
    bindings.  The persistent workers' id twin is
    :class:`repro.engine.columnar.ColumnarMatcher`.
    """

    __slots__ = ("full", "instance", "delta")

    def __init__(self, instance: Instance, delta_inst: Instance):
        self.full = delta_inst is instance
        self.instance = instance
        self.delta = delta_inst

    def new_images(
        self, component: BodyComponent, distinct: bool
    ) -> Iterator[tuple]:
        """Yield the images of ``component`` that use ≥ 1 delta atom.

        With ``distinct``, pivot ``i`` keeps a match only when no earlier
        pivot maps into the delta — otherwise that earlier pivot found
        the match already — so each image comes out once and none is
        held for deduplication.
        """
        instance = self.instance
        delta_inst = self.delta
        atoms = component.atoms
        image_of = component.image_of
        for i, pivot in enumerate(atoms):
            candidates = delta_inst.sorted_with_predicate(pivot.predicate)
            if not candidates:
                continue
            earlier = atoms[:i] if distinct else ()
            for binding in pivot_bindings(atoms, instance, pivot, candidates):
                for atom in earlier:
                    if atom.apply(binding) in delta_inst:
                        break
                else:
                    yield image_of(binding)

    def full_images(self, component: BodyComponent) -> list[tuple]:
        """All images of ``component`` in the instance, once each."""
        image_of = component.image_of
        return [image_of(b) for b in bindings(component.atoms, self.instance)]


def _touches_delta(
    component: BodyComponent,
    instance: Instance,
    delta_by_predicate: dict[Predicate, list[Atom]],
) -> bool:
    """True when some image of ``component`` uses a delta atom."""
    atoms = component.atoms
    for pivot in atoms:
        candidates = delta_by_predicate.get(pivot.predicate)
        if candidates and next(
            pivot_bindings(atoms, instance, pivot, candidates), None
        ) is not None:
            return True
    return False


def _product(factors: list[list[tuple]]) -> Iterator[tuple]:
    """Concatenated component images of a product of image lists."""
    if len(factors) == 1:
        return iter(factors[0])
    if len(factors) == 2:
        first, second = factors
        return (a + b for a in first for b in second)
    return (sum(combo, ()) for combo in product(*factors))


def _component_images(
    components: tuple[BodyComponent, ...], matcher, distinct: bool
) -> Iterator[tuple]:
    """Concatenated component images of the body homomorphisms using
    ≥ 1 delta atom: ``⋃_i old_<i × new_i × full_>i``, each once."""
    if matcher.full:
        fulls = []
        for component in components:
            images = matcher.full_images(component)
            if not images:
                return
            fulls.append(images)
        yield from _product(fulls)
        return
    if len(components) == 1:
        yield from matcher.new_images(components[0], distinct)
        return
    news = [list(matcher.new_images(c, distinct)) for c in components]
    fulls: list[list[tuple] | None] = [None] * len(components)
    olds: list[list[tuple] | None] = [None] * len(components)

    def full(j: int) -> list[tuple]:
        if fulls[j] is None:
            fulls[j] = matcher.full_images(components[j])
        return fulls[j]

    def old(j: int) -> list[tuple]:
        if olds[j] is None:
            new_j = set(news[j])
            olds[j] = [image for image in full(j) if image not in new_j]
        return olds[j]

    for i, new_i in enumerate(news):
        if not new_i:
            continue
        factors = []
        for j in range(len(components)):
            factor = old(j) if j < i else new_i if j == i else full(j)
            if not factor:
                break
            factors.append(factor)
        else:
            yield from _product(factors)


def body_images(rule: Rule, matcher, distinct: bool) -> Iterator[tuple]:
    """The body images of ``rule`` using ≥ 1 delta atom, each once (or,
    without ``distinct``, once per delta atom of a component they use),
    assembled along ``rule.body_variable_order()``.

    ``matcher`` matches one component at a time: it has ``full`` (the
    delta *is* the instance), ``new_images(component, distinct)`` and
    ``full_images(component)``, yielding images along each
    component's terms — an :class:`ObjectMatcher`, or the workers'
    id-native :class:`~repro.engine.columnar.ColumnarMatcher`.  The
    decomposition around them is this one function for both.
    """
    components, assemble = rule.body_components()
    images = _component_images(components, matcher, distinct)
    if assemble is None:
        return images
    if distinct and sum(len(c.terms) for c in components) > len(
        rule.body_variable_order()
    ):
        # Nulls in the body bind like variables but are no part of the
        # image: two homomorphisms may differ on them only.
        return iter(dict.fromkeys(map(assemble, images)))
    return map(assemble, images)


def delta_images(
    rule: Rule,
    instance: Instance,
    delta_inst: Instance,
    *,
    distinct: bool = True,
) -> Iterator[tuple]:
    """Images of the body homomorphisms of ``rule`` into ``instance`` that
    use ≥ 1 atom of ``delta_inst``, each exactly once, in no set order.

    An image is ``h(x̄)`` along ``rule.body_variable_order()``.  When
    ``delta_inst`` *is* the instance every homomorphism qualifies: the
    images are the product of the components' full image sets.

    ``distinct=False`` lets an image through once per delta atom of its
    component that it uses, and saves a delta membership test per match
    of a multi-atom component: for derivation, whose atom set absorbs
    the repeats.
    """
    return body_images(rule, ObjectMatcher(instance, delta_inst), distinct)


def any_delta_image(
    rules: Iterable[Rule], instance: Instance, delta: Iterable[Atom]
) -> bool:
    """Existence-only :func:`delta_images` over ``rules``: True iff for
    some rule a component has an image using a ``delta`` atom and every
    component has an image at all.

    Stops at the first image found per component, and neither indexes
    nor sorts the delta — the post-budget fixpoint probe runs this on a
    whole level's worth of new atoms.
    """
    by_predicate: dict[Predicate, list[Atom]] = {}
    for atom in delta:
        by_predicate.setdefault(atom.predicate, []).append(atom)
    for rule in rules:
        components, _ = rule.body_components()
        touched = False
        for component in components:
            if not touched and _touches_delta(
                component, instance, by_predicate
            ):
                touched = True
            elif next(bindings(component.atoms, instance), None) is None:
                break
        else:
            if touched:
                return True
    return False


def derive_delta_atoms(
    rule: Rule, instance: Instance, delta_inst: Instance
) -> set[Atom]:
    """Head instantiations of ``rule`` whose body uses ≥ 1 delta atom.

    Derivation mode of the core, used by the Datalog closure: no trigger
    identity, no canonical ordering — heads are read off each image
    through the rule's head template (:meth:`Rule.head_atoms
    <repro.rules.rule.Rule.head_atoms>`) and collapse in the returned set,
    which is all a saturation needs.
    """
    derived: set[Atom] = set()
    head_atoms = rule.head_atoms
    for image in delta_images(rule, instance, delta_inst, distinct=False):
        derived |= head_atoms(image)
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
