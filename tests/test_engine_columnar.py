"""The columnar id-native instance: worker replicas in the wire's id space.

Three angles:

* store semantics — id-native ingest/dedup/membership of buffers packed
  by :meth:`WireEncoder.encode_atoms
  <repro.engine.wire.WireEncoder.encode_atoms>` (exactly the worker
  protocol's seed/sync/pivot path), vocabulary sharing with the decoder
  tables, truncated-stream errors;
* matcher-API parity — ``count`` / ``position_count`` /
  ``sorted_with_predicate`` / ``matching_position`` / iteration agree
  *exactly* (including order) with an object-level
  :class:`~repro.logic.instances.Instance` holding the same atoms, which
  is what makes columnar worker replicas bit-identical;
* the ``delta_since`` append-only fast path the pool's sync hot loop
  rides.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import wire
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.engine.core import delta_images
from repro.engine.wire import WireDecoder, WireEncoder
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.terms import Constant, Null
from repro.rules.parser import parse_rules

E = Predicate("E", 2)
F = Predicate("F", 2)
TAG = Predicate("Tag", 1)
MARK = Predicate("Mark", 0)


def _constants(n):
    return [Constant(f"c{i}") for i in range(n)]


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


class TestStoreSemantics:
    def test_add_dedup_len_contains(self):
        a, b = _constants(2)
        encoder, decoder, store = _replica([Atom(E, (a, b)), Atom(MARK, ())])
        assert _ship(encoder, decoder, store, [Atom(E, (a, b))]) == 0
        assert len(store) == 2
        assert Atom(E, (a, b)) in store
        assert Atom(MARK, ()) in store
        assert Atom(E, (b, a)) not in store
        # Unknown symbols can never be in the store: no interning happens
        # on the read path.
        assert Atom(E, (a, Constant("unseen"))) not in store
        assert Atom(F, (a, b)) not in store

    def test_vocabulary_is_shared_by_reference(self):
        a, b, c = _constants(3)
        encoder, decoder, store = _replica([Atom(E, (a, b))])
        # Symbols the decoder learns after store creation are visible to
        # the store without any sync step of its own.
        assert _ship(encoder, decoder, store, [Atom(F, (b, c))]) == 1
        assert Atom(F, (b, c)) in store
        assert store.count(F) == 1

    def test_ingest_packed_round_trip_and_dedup(self):
        rng = random.Random(11)
        atoms = _random_atoms(rng, 30)
        encoder, _, replica = _replica(atoms)
        distinct = list(dict.fromkeys(atoms))
        assert len(replica) == len(distinct)
        assert sorted(replica) == sorted(distinct)
        # Re-ingesting the same buffer adds nothing.
        buf = encoder.encode_atoms(atoms)
        assert replica.ingest_packed(buf) == 0
        # One row per packed atom, stored under the encoder's own ids.
        arity = lambda p: replica.vocabulary.predicates[p].arity
        assert len(list(wire.iter_atom_rows(buf, arity))) == len(atoms)
        for atom in distinct:
            ids = wire.unpack_ids(encoder.encode_atoms([atom]))
            assert replica.contains_row(ids[0], tuple(ids[1:]))

    def test_ingest_packed_truncated_stream_raises(self):
        a, b = _constants(2)
        encoder = WireEncoder()
        buf = encoder.encode_atoms([Atom(E, (a, b))])
        decoder = WireDecoder()
        decoder.apply_segment(encoder.segment(0, 0))
        replica = ColumnarInstance(Vocabulary.of_decoder(decoder))
        with pytest.raises(ChaseError):
            replica.ingest_packed(buf[:-1])


class TestMatcherParity:
    """The matcher-facing API slice agrees with Instance, order included."""

    def _pair(self, seed=3, n=60):
        atoms = _random_atoms(random.Random(seed), n)
        _, _, store = _replica(atoms)
        return store, Instance(atoms, add_top=False)

    def test_counts_and_membership(self):
        store, reference = self._pair()
        for pred in (E, F, TAG, MARK):
            assert store.count(pred) == reference.count(pred)
        for atom in reference:
            assert atom in store
        assert len(store) == len(reference)
        assert store.count(Predicate("Absent", 1)) == 0

    def test_sorted_with_predicate_matches(self):
        store, reference = self._pair()
        for pred in (E, F, TAG, MARK):
            assert store.sorted_with_predicate(
                pred
            ) == reference.sorted_with_predicate(pred)
        assert store.sorted_with_predicate(Predicate("Absent", 1)) == ()

    def test_positional_index_matches(self):
        store, reference = self._pair()
        terms = _constants(6) + [Null(f"_n{i}") for i in range(3)]
        for pred in (E, F, TAG):
            for position in range(pred.arity):
                for term in terms:
                    assert store.position_count(
                        pred, position, term
                    ) == reference.position_count(pred, position, term)
                    assert store.matching_position(
                        pred, position, term
                    ) == reference.matching_position(pred, position, term)

    def test_sorted_atoms_signature_iteration(self):
        store, reference = self._pair()
        assert store.sorted_atoms() == reference.sorted_atoms()
        assert set(store.signature()) == set(reference.signature())
        assert sorted(store) == sorted(reference)

    def test_caches_invalidate_on_append(self):
        a, b, c = _constants(3)
        encoder, decoder, store = _replica([Atom(E, (b, c))])
        first = store.sorted_with_predicate(E)
        assert first == (Atom(E, (b, c)),)
        _ship(encoder, decoder, store, [Atom(E, (a, b))])
        assert store.sorted_with_predicate(E) == (
            Atom(E, (a, b)),
            Atom(E, (b, c)),
        )
        assert store.matching_position(E, 1, b) == (Atom(E, (a, b)),)

    def test_delta_images_agree_with_object_instances(self):
        """The shared delta core runs unchanged on columnar stores."""
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        rule = list(rules)[0]
        atoms = [
            Atom(E, (Constant(f"c{i}"), Constant(f"c{i + 1}")))
            for i in range(5)
        ]
        pivots = atoms[2:4]
        encoder, _, store = _replica(atoms)
        # The worker's pivot view shares the replica's vocabulary.
        view = ColumnarInstance(store.vocabulary)
        view.ingest_packed(encoder.encode_atoms(pivots))
        reference = list(
            delta_images(
                rule, Instance(atoms, add_top=False),
                Instance(pivots, add_top=False),
            )
        )
        columnar = list(delta_images(rule, store, view))
        assert columnar == reference
        assert reference  # the workload actually matched something


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
