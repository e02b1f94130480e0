"""Columnar id-native instances and the id kernel the workers run on them.

The persistent pool's wire codec interns every symbol once; a
:class:`ColumnarInstance` keeps the worker replicas in that same id
space.  Atoms live as integer rows over the pool's shared symbol tables,
exactly as :mod:`repro.engine.wire` packs them, so a packed sync buffer
folds into a replica without being decoded back into ``Atom`` objects,
and the worker's matcher joins on those rows directly.

Layout
------
One :class:`Vocabulary` (a view over a worker's
:class:`~repro.engine.wire.WireDecoder` replica of the parent's tables)
maps ids to term/predicate objects and back.  Per predicate id the store
keeps

* a row set of term-id tuples — membership, dedup and the candidates of
  an atom none of whose positions is bound;
* the positional index, one ``term_id -> rows`` dict per argument
  position — the id twin of the object instance's most-selective
  ``(predicate, position, term)`` buckets, read directly by the kernel.

Rows arrive only as wire buffers: :meth:`ColumnarInstance.ingest_packed`
walks a packed seed/sync/pivot buffer with
:func:`repro.engine.wire.iter_atom_rows` and indexes each new row —
packed bytes in, id rows stored, no ``Atom`` built.  Columnar instances
are append-only (the chase never retracts); ``discard`` has no columnar
counterpart by design.

The id kernel
-------------
:class:`ColumnarMatcher` is the per-component matcher of the shared
delta decomposition (:func:`repro.engine.core.body_images`) over a
replica and a delta store.  Each body component is compiled once per
round into an id *plan*: per atom of the search order its predicate id,
the slots it binds, and the checks and seed positions over slots bound
earlier or holding a constant's id.  A slot is a position of the
component's image along :attr:`BodyComponent.terms
<repro.rules.rule.BodyComponent.terms>`, with the body's constants in
extra slots after it, so a finished match *is* its image.  A body
constant the vocabulary does not hold yet compiles to id ``-1``, which
no row holds: the component has no match this round, and plans are
rebuilt every round, so the constant matches once it is shipped.

The kernel keeps the object matcher's work exactly
(:mod:`repro.logic.homomorphisms`): atoms are ordered by the same
:func:`~repro.logic.homomorphisms._order_atoms` (fed by the store's
per-predicate row counts), and each atom's candidates come from the
same most selective bound position bucket, or from all rows of the
predicate when nothing is bound.  It therefore tests the same
candidates and starts the same searches, and counts both in
:data:`~repro.logic.homomorphisms.MATCHER_STATS`.

On top of the images, :func:`derive_rows` reads head rows through each
rule's head template compiled to ids (:class:`HeadRows`), and
:func:`enumerate_images` returns the images themselves.  Ids in, ids
out: the worker packs its replies straight from these rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.engine import wire
from repro.engine.core import body_images
from repro.errors import ChaseError
from repro.logic.homomorphisms import MATCHER_STATS, _order_atoms
from repro.logic.predicates import Predicate
from repro.logic.terms import Term
from repro.rules.rule import BodyComponent, Rule, tuple_getter

if TYPE_CHECKING:  # annotation-only
    from repro.engine.wire import WireDecoder

_NO_ROWS: frozenset = frozenset()

#: The id of a body constant the vocabulary does not hold: no row has it.
ABSENT = -1


class Vocabulary:
    """A live id ↔ object view over a worker's wire symbol tables.

    The vocabulary binds the four live containers of a
    :class:`~repro.engine.wire.WireDecoder` (terms, term ids, predicates,
    predicate ids) by reference, so a columnar instance keyed on it sees
    every symbol the table learns later — no copies, no synchronization.
    """

    __slots__ = ("terms", "term_ids", "predicates", "predicate_ids")

    def __init__(
        self,
        terms: Sequence[Term],
        term_ids: dict,
        predicates: Sequence[Predicate],
        predicate_ids: dict,
    ):
        self.terms = terms
        self.term_ids = term_ids
        self.predicates = predicates
        self.predicate_ids = predicate_ids

    @classmethod
    def of_decoder(cls, decoder: "WireDecoder") -> "Vocabulary":
        """The worker-side view over a decoder's table replica."""
        return cls(
            decoder.terms,
            decoder.term_ids,
            decoder.predicates,
            decoder.predicate_ids,
        )


class ColumnarInstance:
    """An append-only id-native atom store over a shared vocabulary.

    See the module docstring for the layout.  ``count`` is the one
    object-keyed read left: the kernel's atom ordering asks it for
    predicate sizes, as the object matcher asks an ``Instance``.
    """

    __slots__ = ("_vocabulary", "_row_sets", "_positions")

    def __init__(self, vocabulary: Vocabulary):
        self._vocabulary = vocabulary
        # pred_id -> set of term-id row tuples.
        self._row_sets: dict[int, set[tuple[int, ...]]] = {}
        # pred_id -> one {term_id: rows} dict per argument position.
        self._positions: dict[int, tuple[dict[int, list], ...]] = {}

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._row_sets.values())

    def count(self, predicate: Predicate) -> int:
        """The number of rows over ``predicate`` (0 if never shipped)."""
        pred_id = self._vocabulary.predicate_ids.get(predicate, ABSENT)
        return len(self.rows(pred_id))

    def rows(self, pred_id: int):
        """Every row over ``pred_id``, as a set of term-id tuples."""
        return self._row_sets.get(pred_id, _NO_ROWS)

    def positions(self, pred_id: int) -> tuple[dict[int, list], ...] | None:
        """The positional index of ``pred_id``: per argument position a
        ``term_id -> rows`` dict; None while the predicate has no row."""
        return self._positions.get(pred_id)

    def contains_row(self, pred_id: int, term_ids: tuple[int, ...]) -> bool:
        rows = self._row_sets.get(pred_id)
        return rows is not None and term_ids in rows

    def add_row(self, pred_id: int, term_ids: tuple[int, ...]) -> bool:
        """Append one row; return True when it was new."""
        rows = self._row_sets.get(pred_id)
        if rows is None:
            rows = self._row_sets[pred_id] = set()
            self._positions[pred_id] = tuple({} for _ in term_ids)
        elif term_ids in rows:
            return False
        rows.add(term_ids)
        for index, term_id in zip(self._positions[pred_id], term_ids):
            bucket = index.get(term_id)
            if bucket is None:
                index[term_id] = [term_ids]
            else:
                bucket.append(term_ids)
        return True

    # checks: hot
    def ingest_packed(self, data: bytes) -> int:
        """Fold one wire-format atom buffer in; return the new-row count.

        Duplicate rows are dropped (sync streams are deduplicated
        already; seed-after-resize replays are not).
        """
        if not data:
            return 0
        predicates = self._vocabulary.predicates
        add_row = self.add_row
        added = 0
        for pred_id, term_ids in wire.iter_atom_rows(
            data, lambda p: predicates[p].arity
        ):
            if add_row(pred_id, term_ids):
                added += 1
        return added


# ----------------------------------------------------------------------
# The id kernel
# ----------------------------------------------------------------------


class _Step:
    """One atom of a compiled search order.

    ``seeds`` are ``(position, slot)`` pairs whose slot is bound before
    this atom (an earlier atom's term or a constant), in position order:
    the candidate buckets.  ``binds`` write a candidate's ids into the
    slots this atom binds first; ``checks`` then compare every other
    position with its slot — the seeds again (bar a lone seed, whose
    bucket already holds only matching rows), and repeats of a term
    within the atom.
    """

    __slots__ = ("seeds", "binds", "checks", "index", "rows")

    def __init__(self, pred_id, seeds, binds, checks, store):
        self.seeds = seeds
        self.binds = binds
        self.checks = checks
        self.index = store.positions(pred_id)
        self.rows = store.rows(pred_id)


class _Plan:
    """A component compiled for one search order of one round."""

    __slots__ = ("steps", "width", "constants", "earlier", "image")

    def __init__(self, steps, width, constants, earlier):
        self.steps = steps
        self.width = width
        self.constants = constants
        #: ``(pred_id, row_of)`` per earlier pivot atom that a distinct
        #: new-image search must find outside the delta.
        self.earlier = earlier
        self.image = tuple_getter(range(width))


# checks: hot
def _candidates(step: _Step, values: list):
    """The rows :func:`repro.logic.homomorphisms._candidates` would test:
    the smallest bucket among the bound positions (the first one on
    ties), nothing if one of them is empty, else every row."""
    index = step.index
    best = None
    for position, slot in step.seeds:
        bucket = index[position].get(values[slot]) if index else None
        if not bucket:
            return ()
        if best is None or len(bucket) < len(best):
            best = bucket
    return step.rows if best is None else best


# checks: hot
def _matches(plan: _Plan, first, delta) -> Iterator[tuple]:
    """Yield the image of every match of ``plan`` whose first atom maps
    into ``first``.

    An explicit-stack search like the object matcher's, over a flat slot
    list instead of a binding dict: slots are overwritten, never undone,
    because each is bound at exactly one depth.  Candidates are counted
    a bucket at a time, as a frame is pushed; every caller drains the
    search, so that is the count of candidates tested.
    """
    stats = MATCHER_STATS
    stats.searches += 1
    stats.candidates += len(first)
    steps = plan.steps
    last = len(steps) - 1
    values = [None] * plan.width
    values.extend(plan.constants)
    image = plan.image
    earlier = plan.earlier
    frames = [iter(first)]
    while frames:
        depth = len(frames) - 1
        step = steps[depth]
        binds = step.binds
        checks = step.checks
        for row in frames[-1]:
            for position, slot in binds:
                values[slot] = row[position]
            for position, slot in checks:
                if row[position] != values[slot]:
                    break
            else:
                if depth < last:
                    candidates = _candidates(steps[depth + 1], values)
                    stats.candidates += len(candidates)
                    frames.append(iter(candidates))
                    break
                for pred_id, row_of in earlier:
                    if delta.contains_row(pred_id, row_of(values)):
                        break
                else:
                    yield image(values)
        else:
            frames.pop()


class ColumnarMatcher:
    """The id-native matcher of one round: components of rule bodies
    matched into ``store``, pivoting on ``delta`` (see the module
    docstring).  Images are term-id tuples along each component's
    terms; the decomposition around them is
    :func:`repro.engine.core.body_images`, shared with the object
    matcher.
    """

    __slots__ = ("full", "_store", "_delta", "_plans")

    def __init__(self, store: ColumnarInstance, delta: ColumnarInstance):
        self.full = delta is store
        self._store = store
        self._delta = delta
        self._plans: dict[tuple, _Plan] = {}

    def _pred_id(self, predicate: Predicate) -> int:
        return self._store.vocabulary.predicate_ids.get(predicate, ABSENT)

    def _plan(
        self, component: BodyComponent, pivot: int | None, distinct: bool
    ) -> _Plan:
        key = (component.atoms, pivot, distinct)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._compile(component, pivot, distinct)
        return plan

    def _compile(
        self, component: BodyComponent, pivot: int | None, distinct: bool
    ) -> _Plan:
        """The component's id plan, for the search order the object
        matcher uses with this pivot (or without one)."""
        store = self._store
        term_ids = store.vocabulary.term_ids
        atoms = component.atoms
        if pivot is None:
            ordered = _order_atoms(list(atoms), store)
        else:
            rest = [a for i, a in enumerate(atoms) if i != pivot]
            pinned = {t for t in atoms[pivot].args if not t.is_constant}
            ordered = [atoms[pivot]] + _order_atoms(rest, store, bound=pinned)
        width = len(component.terms)
        slots = {term: i for i, term in enumerate(component.terms)}
        constants: list[int] = []
        for atom in atoms:
            for term in atom.args:
                if term.is_constant and term not in slots:
                    slots[term] = width + len(constants)
                    constants.append(term_ids.get(term, ABSENT))
        bound: set[Term] = set()
        steps = []
        for depth, atom in enumerate(ordered):
            seeds, binds, checks = [], [], []
            fresh: set[Term] = set()
            for position, term in enumerate(atom.args):
                slot = slots[term]
                if term.is_constant or term in bound:
                    seeds.append((position, slot))
                    checks.append((position, slot))
                elif term in fresh:
                    checks.append((position, slot))
                else:
                    fresh.add(term)
                    binds.append((position, slot))
            bound |= fresh
            if depth and len(seeds) == 1:
                # Past the first atom, candidates come from the seed's
                # own bucket.  (The first atom's may be the delta's rows.)
                checks.remove(seeds[0])
            steps.append(
                _Step(
                    self._pred_id(atom.predicate),
                    tuple(seeds), tuple(binds), tuple(checks), store,
                )
            )
        earlier = ()
        if distinct and pivot:
            earlier = tuple(
                (
                    self._pred_id(atom.predicate),
                    tuple_getter([slots[t] for t in atom.args]),
                )
                for atom in atoms[:pivot]
            )
        return _Plan(tuple(steps), width, tuple(constants), earlier)

    def new_images(
        self, component: BodyComponent, distinct: bool
    ) -> Iterator[tuple]:
        """Yield the images of ``component`` that use ≥ 1 delta row, by
        the pivot decomposition of :func:`repro.engine.core.delta_images`."""
        delta = self._delta
        for i, pivot in enumerate(component.atoms):
            first = delta.rows(self._pred_id(pivot.predicate))
            if first:
                plan = self._plan(component, i, distinct)
                yield from _matches(plan, first, delta)

    def full_images(self, component: BodyComponent) -> list:
        """All images of ``component`` in the store, once each."""
        plan = self._plan(component, None, False)
        values = [None] * plan.width
        values.extend(plan.constants)
        first = _candidates(plan.steps[0], values)
        return list(_matches(plan, first, self._delta))


class HeadRows:
    """A rule's head template (:meth:`Rule.head_template
    <repro.rules.rule.Rule.head_template>`) over term ids.

    Called with a body image and the existential nulls as id tuples, it
    returns the head's ``(pred_id, term_ids)`` rows.  Every head symbol
    must be in the vocabulary — the parent interns them all
    (:meth:`WireEncoder.intern_rules
    <repro.engine.wire.WireEncoder.intern_rules>`) before shipping a
    rule's work.
    """

    __slots__ = ("atoms", "constants")

    def __init__(self, rule: Rule, vocabulary: Vocabulary):
        atoms, constants = rule.head_template()
        try:
            self.atoms = tuple(
                (vocabulary.predicate_ids[predicate], get)
                for predicate, get in atoms
            )
            self.constants = tuple(vocabulary.term_ids[c] for c in constants)
        except KeyError as exc:
            raise ChaseError(
                f"head symbol {exc.args[0]} of {rule} was never shipped"
            ) from None

    def __call__(self, image: tuple, nulls: tuple = ()) -> set[tuple]:
        values = image + nulls + self.constants
        return {(pred_id, get(values)) for pred_id, get in self.atoms}


def derive_rows(
    rules: Iterable[Rule],
    store: ColumnarInstance,
    delta: ColumnarInstance,
) -> dict[int, set[tuple]]:
    """One derivation round on ids: the head rows, per predicate id, of
    every body image using ≥ 1 delta row — the id twin of
    :func:`repro.engine.core.derive_round_atoms`."""
    matcher = ColumnarMatcher(store, delta)
    vocabulary = store.vocabulary
    derived: dict[int, set[tuple]] = {}
    for rule in rules:
        head = HeadRows(rule, vocabulary)
        images = body_images(rule, matcher, distinct=False)
        if head.constants:
            images = [image + head.constants for image in images]
        elif len(head.atoms) > 1:
            images = list(images)
        for pred_id, get in head.atoms:
            rows = derived.get(pred_id)
            if rows is None:
                rows = derived[pred_id] = set()
            rows.update(map(get, images))
    return derived


def enumerate_images(
    rules: Sequence[Rule],
    store: ColumnarInstance,
    delta: ColumnarInstance,
) -> list[list[tuple]]:
    """One enumeration round on ids: per rule, the body images (term-id
    tuples along its body-variable order) using ≥ 1 delta row, each
    once — the id twin of :func:`repro.engine.core.delta_images`."""
    matcher = ColumnarMatcher(store, delta)
    return [list(body_images(rule, matcher, distinct=True)) for rule in rules]
