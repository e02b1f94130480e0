"""The columnar id-native instance and the id kernel the workers run.

Three angles:

* store semantics — id-native ingest/dedup/membership of buffers packed
  by :meth:`WireEncoder.encode_atoms
  <repro.engine.wire.WireEncoder.encode_atoms>` (exactly the worker
  protocol's seed/sync/pivot path), the positional index, vocabulary
  sharing with the decoder tables, truncated-stream errors;
* the differential kernel test — :class:`ColumnarMatcher` through the
  shared decomposition against the object matcher's ``delta_images`` /
  ``derive_round_atoms`` on the same atoms and delta: equal image
  multisets *and* equal matcher searches and candidates, on every body
  shape the decomposition distinguishes;
* the ``delta_since`` append-only fast path the pool's sync hot loop
  rides.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.corpus import path_instance
from repro.engine import wire
from repro.engine.columnar import (
    ColumnarInstance,
    ColumnarMatcher,
    Vocabulary,
    derive_rows,
    enumerate_images,
)
from repro.engine.core import body_images, delta_images, derive_round_atoms
from repro.engine.wire import WireDecoder, WireEncoder
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.homomorphisms import MATCHER_STATS
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.terms import Constant, Null, Variable
from repro.rules.parser import parse_rules
from repro.rules.rule import Rule

E = Predicate("E", 2)
F = Predicate("F", 2)
TAG = Predicate("Tag", 1)
MARK = Predicate("Mark", 0)


def _constants(n):
    return [Constant(f"C{i}") for i in range(n)]


def _random_atoms(rng, n):
    terms = _constants(6) + [Null(f"_n{i}") for i in range(3)]
    atoms = []
    for _ in range(n):
        pred = rng.choice([E, F, TAG, MARK])
        atoms.append(
            Atom(pred, tuple(rng.choice(terms) for _ in range(pred.arity)))
        )
    return atoms


def _ship(encoder, decoder, store, atoms):
    """One sync message: pack ``atoms``, replay the table segment the
    replica has not seen, fold the buffer in; return the new-row count."""
    marks = encoder.marks()
    buf = encoder.encode_atoms(atoms)
    decoder.apply_segment(encoder.segment(*marks))
    return store.ingest_packed(buf)


def _replica(atoms):
    """A worker-side replica seeded with ``atoms`` through the codec."""
    encoder = WireEncoder()
    decoder = WireDecoder()
    store = ColumnarInstance(Vocabulary.of_decoder(decoder))
    _ship(encoder, decoder, store, atoms)
    return encoder, decoder, store


def _row(encoder, atom):
    ids = wire.unpack_ids(encoder.encode_atoms([atom]))
    return ids[0], tuple(ids[1:])


class TestStoreSemantics:
    def test_add_dedup_len_contains(self):
        a, b = _constants(2)
        encoder, decoder, store = _replica([Atom(E, (a, b)), Atom(MARK, ())])
        assert _ship(encoder, decoder, store, [Atom(E, (a, b))]) == 0
        assert len(store) == 2
        assert store.contains_row(*_row(encoder, Atom(E, (a, b))))
        assert store.contains_row(*_row(encoder, Atom(MARK, ())))
        assert not store.contains_row(*_row(encoder, Atom(E, (b, a))))
        # A predicate the replica has no row of is simply empty.
        assert store.count(F) == 0
        assert store.rows(encoder.predicates.intern(F)) == frozenset()

    def test_vocabulary_is_shared_by_reference(self):
        a, b, c = _constants(3)
        encoder, decoder, store = _replica([Atom(E, (a, b))])
        # Symbols the decoder learns after store creation are visible to
        # the store without any sync step of its own.
        assert _ship(encoder, decoder, store, [Atom(F, (b, c))]) == 1
        assert store.contains_row(*_row(encoder, Atom(F, (b, c))))
        assert store.count(F) == 1

    def test_ingest_packed_round_trip_and_dedup(self):
        rng = random.Random(11)
        atoms = _random_atoms(rng, 30)
        encoder, _, replica = _replica(atoms)
        distinct = list(dict.fromkeys(atoms))
        assert len(replica) == len(distinct)
        # Re-ingesting the same buffer adds nothing.
        buf = encoder.encode_atoms(atoms)
        assert replica.ingest_packed(buf) == 0
        # One row per packed atom, stored under the encoder's own ids.
        arity = lambda p: replica.vocabulary.predicates[p].arity
        assert len(list(wire.iter_atom_rows(buf, arity))) == len(atoms)
        for atom in distinct:
            assert replica.contains_row(*_row(encoder, atom))
        for pred in (E, F, TAG, MARK):
            assert replica.count(pred) == sum(
                1 for a in distinct if a.predicate == pred
            )

    def test_positional_index_matches_instance(self):
        atoms = _random_atoms(random.Random(3), 60)
        encoder, _, store = _replica(atoms)
        reference = Instance(atoms, add_top=False)
        terms = encoder.terms.objects
        for pred in (E, F, TAG):
            pred_id = encoder.predicates.ids[pred]
            positions = store.positions(pred_id)
            for position in range(pred.arity):
                for term_id, rows in positions[position].items():
                    assert {
                        Atom(pred, tuple(terms[i] for i in row))
                        for row in rows
                    } == set(
                        reference.matching_position(
                            pred, position, terms[term_id]
                        )
                    )

    def test_ingest_packed_truncated_stream_raises(self):
        a, b = _constants(2)
        encoder = WireEncoder()
        buf = encoder.encode_atoms([Atom(E, (a, b))])
        decoder = WireDecoder()
        decoder.apply_segment(encoder.segment(0, 0))
        replica = ColumnarInstance(Vocabulary.of_decoder(decoder))
        with pytest.raises(ChaseError):
            replica.ingest_packed(buf[:-1])


# ----------------------------------------------------------------------
# The differential kernel test
# ----------------------------------------------------------------------


def _graph(rng, nodes, edges, predicate=E):
    names = _constants(nodes)
    return [
        Atom(predicate, (rng.choice(names), rng.choice(names)))
        for _ in range(edges)
    ]


def _fixture(seed=5):
    """Atoms over E, F and Tag (plus ``top``) and a delta drawn from them."""
    rng = random.Random(seed)
    atoms = list(
        dict.fromkeys(
            _graph(rng, 7, 30)
            + _graph(rng, 6, 12, F)
            + [Atom(TAG, (c,)) for c in _constants(3)]
            + [Atom(Predicate("top", 0), ())]
        )
    )
    delta = rng.sample(atoms, 12)
    return atoms, delta


def _null_rule():
    """``E(x, _b), F(_b, y) -> E(x, y)``: a null in the body binds like a
    variable but is no part of the image."""
    x, y, n = Variable("x"), Variable("y"), Null("_b")
    return Rule(
        [Atom(E, (x, n)), Atom(F, (n, y)), Atom(TAG, (x,))],
        [Atom(E, (x, y))],
    )


#: Body shapes the decomposition distinguishes, one rule each.
SHAPES = {
    "connected": "E(x,y), E(y,z) -> E(x,z)",
    "disconnected": "E(x,u), E(y,v) -> E(x,v)",
    "three_components": "E(x,y), F(u,v), Tag(w) -> E(x,w)",
    "repeated_variable": "E(x,x), E(x,y) -> F(y,y)",
    "body_constant": "E(x,C1), E(C1,y) -> F(x,y)",
    "absent_constant": "E(x,Nowhere), E(x,y) -> F(x,y)",
    "absent_constant_component": "E(x,y), Tag(Nowhere) -> F(x,y)",
    "nullary_component": "top, E(x,y) -> F(y,x)",
    "ground_component": "Tag(C0), E(x,y) -> F(x,y)",
    "empty_factor": "E(x,y), Missing(z) -> F(x,z)",
}


def _rule(shape):
    if shape == "nulls_in_body":
        return _null_rule()
    (rule,) = parse_rules(SHAPES[shape])
    return rule


ALL_SHAPES = sorted(SHAPES) + ["nulls_in_body"]


def _counted(run):
    MATCHER_STATS.reset()
    result = run()
    return result, MATCHER_STATS.snapshot()


def _as_terms(store, images):
    terms = store.vocabulary.terms
    return Counter(tuple(terms[i] for i in image) for image in images)


class TestKernelDifferential:
    """The id kernel tests exactly what the object matcher tests."""

    def _stores(self, atoms, delta):
        encoder, decoder, store = _replica(atoms)
        delta_store = ColumnarInstance(store.vocabulary)
        delta_store.ingest_packed(encoder.encode_atoms(delta))
        return store, delta_store

    @pytest.mark.parametrize("distinct", [True, False])
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_delta_images_match(self, shape, distinct):
        rule = _rule(shape)
        atoms, delta = _fixture()
        store, delta_store = self._stores(atoms, delta)
        reference, reference_stats = _counted(
            lambda: list(
                delta_images(
                    rule,
                    Instance(atoms, add_top=False),
                    Instance(delta, add_top=False),
                    distinct=distinct,
                )
            )
        )
        images, stats = _counted(
            lambda: list(
                body_images(
                    rule, ColumnarMatcher(store, delta_store), distinct
                )
            )
        )
        assert _as_terms(store, images) == Counter(reference)
        assert stats == reference_stats

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_full_images_match(self, shape):
        # delta is the instance: the product of the full image sets.
        rule = _rule(shape)
        atoms, _ = _fixture(seed=9)
        _, _, store = _replica(atoms)
        instance = Instance(atoms, add_top=False)
        reference, reference_stats = _counted(
            lambda: list(delta_images(rule, instance, instance))
        )
        images, stats = _counted(
            lambda: list(
                body_images(rule, ColumnarMatcher(store, store), True)
            )
        )
        assert _as_terms(store, images) == Counter(reference)
        assert stats == reference_stats

    def test_shapes_are_not_vacuous(self):
        atoms, delta = _fixture()
        instance = Instance(atoms, add_top=False)
        delta_inst = Instance(delta, add_top=False)
        empty = {
            shape
            for shape in ALL_SHAPES
            if not list(delta_images(_rule(shape), instance, delta_inst))
        }
        assert empty == {
            "absent_constant",
            "absent_constant_component",
            "empty_factor",
        }

    def test_rounds_match_derive_and_enumerate(self):
        rules = [
            _rule(shape) for shape in ALL_SHAPES if shape != "nulls_in_body"
        ]
        atoms, delta = _fixture(seed=13)
        store, delta_store = self._stores(atoms, delta)
        instance = Instance(atoms, add_top=False)
        delta_inst = Instance(delta, add_top=False)
        reference, reference_stats = _counted(
            lambda: derive_round_atoms(rules, instance, delta_inst)
        )
        derived, stats = _counted(
            lambda: derive_rows(rules, store, delta_store)
        )
        vocabulary = store.vocabulary
        assert {
            Atom(
                vocabulary.predicates[pred_id],
                tuple(vocabulary.terms[i] for i in row),
            )
            for pred_id, rows in derived.items()
            for row in rows
        } == reference
        assert stats == reference_stats
        per_rule = enumerate_images(rules, store, delta_store)
        for rule, images in zip(rules, per_rule):
            assert _as_terms(store, images) == Counter(
                delta_images(rule, instance, delta_inst)
            )

    def test_absent_constant_matches_once_shipped(self):
        # A constant the vocabulary lacks compiles to no match for the
        # round only: once shipped, the next round's plan finds it.
        (rule,) = parse_rules("E(x,Late) -> F(x,x)")
        c0, late = Constant("C0"), Constant("Late")
        encoder, decoder, store = _replica([Atom(E, (c0, c0))])
        assert enumerate_images([rule], store, store) == [[]]
        _ship(encoder, decoder, store, [Atom(E, (c0, late))])
        ((image,),) = enumerate_images([rule], store, store)
        assert store.vocabulary.terms[image[0]] == c0

    def test_closure_candidates_pinned_at_exp13(self):
        # The 60-path closure, round by round on a replica: the kernel
        # tests EXP-13's exact 46 136 candidates (the inline delta
        # engine's count) and derives the same closure.
        rules = list(parse_rules("E(x,y), E(y,z) -> E(x,z)"))
        instance = path_instance(60)
        encoder, decoder, store = _replica(instance.sorted_atoms())
        delta = instance.sorted_atoms()
        MATCHER_STATS.reset()
        while delta:
            delta_store = ColumnarInstance(store.vocabulary)
            delta_store.ingest_packed(encoder.encode_atoms(delta))
            vocabulary = store.vocabulary
            derived = derive_rows(rules, store, delta_store)
            delta = sorted(
                Atom(
                    vocabulary.predicates[pred_id],
                    tuple(vocabulary.terms[i] for i in row),
                )
                for pred_id, rows in derived.items()
                for row in rows
                if not store.contains_row(pred_id, row)
            )
            _ship(encoder, decoder, store, delta)
        assert MATCHER_STATS.candidates == 46_136
        assert store.count(E) == 60 * 61 // 2


class TestDeltaSinceFastPath:
    """`Instance.delta_since` skips the seen-set filter until a discard."""

    def test_append_only_delta_is_a_log_slice(self):
        a, b, c = _constants(3)
        inst = Instance(add_top=False)
        inst.add(Atom(E, (a, b)))
        mark = inst.revision
        inst.add(Atom(E, (b, c)))
        inst.add(Atom(TAG, (a,)))
        delta = inst.delta_since(mark)
        assert delta == [Atom(E, (b, c)), Atom(TAG, (a,))]
        # Full-history delta on an append-only instance is the log itself.
        assert inst.delta_since(0) == [
            Atom(E, (a, b)),
            Atom(E, (b, c)),
            Atom(TAG, (a,)),
        ]

    def test_discard_switches_to_filtering(self):
        a, b, c = _constants(3)
        inst = Instance(add_top=False)
        inst.add(Atom(E, (a, b)))
        inst.add(Atom(E, (b, c)))
        inst.discard(Atom(E, (a, b)))
        # The discarded atom must not reappear in any delta.
        assert inst.delta_since(0) == [Atom(E, (b, c))]
        # Re-adding after a discard logs a second occurrence; the delta
        # stays a set, keeping the first surviving log position.
        inst.add(Atom(E, (a, b)))
        assert inst.delta_since(0) == [Atom(E, (a, b)), Atom(E, (b, c))]

    def test_failed_discard_keeps_fast_path_semantics(self):
        a, b = _constants(2)
        inst = Instance(add_top=False)
        inst.add(Atom(E, (a, b)))
        revision = inst.revision
        assert not inst.discard(Atom(F, (a, b)))
        # A no-op discard bumps nothing and the delta stays exact.
        assert inst.revision == revision
        assert inst.delta_since(0) == [Atom(E, (a, b))]

    def test_copy_preserves_filtering_state(self):
        a, b = _constants(2)
        inst = Instance(add_top=False)
        inst.add(Atom(E, (a, b)))
        inst.discard(Atom(E, (a, b)))
        inst.add(Atom(E, (a, b)))
        clone = inst.copy()
        # The clone rebuilds from live atoms only — its log is clean, so
        # either path must produce the same delta.
        assert clone.delta_since(0) == inst.delta_since(0)
