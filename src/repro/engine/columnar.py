"""Columnar id-native instances: worker replicas in the wire's id space.

The persistent pool's wire codec interns every symbol once; a
:class:`ColumnarInstance` keeps the worker replicas in that same id
space.  Atoms live as flat integer rows over the pool's shared symbol
tables, exactly as :mod:`repro.engine.wire` packs them, so a packed sync
buffer folds into a replica without being decoded back into ``Atom``
objects and re-indexed.

Layout
------
One :class:`Vocabulary` (a view over a worker's
:class:`~repro.engine.wire.WireDecoder` replica of the parent's tables)
maps ids to term/predicate objects and back.  Per predicate id the store
keeps

* a flat ``array('q')`` *column* of term ids, row-major (``arity`` ids
  per row) — the same ``(pred_id, term_ids...)`` stream the wire packs,
* a row set of id tuples for O(1) membership (``probe`` runs on ids, no
  ``Atom`` is built),
* an id-level positional index ``(pred_id, position, term_id) -> rows``
  mirroring the object instance's most-selective candidate seeding.

Ingest
------
Rows arrive only as wire buffers: :meth:`ColumnarInstance.ingest_packed`
walks a packed sync/seed/pivot buffer with
:func:`repro.engine.wire.iter_atom_rows` and appends each new row's ids
straight into its column — packed bytes in, flat ids stored, no ``Atom``
built.

Lazy materialization
--------------------
The homomorphism matcher still speaks ``Atom``: the store implements the
matcher-facing slice of the :class:`~repro.logic.instances.Instance` API
(``count`` / ``position_count`` / ``sorted_with_predicate`` /
``matching_position`` / ``__contains__``) by materializing atoms lazily,
bucket by bucket, through the cached-hash
:func:`~repro.logic.atoms.build_atom` fast path — one ``Atom`` per row
ever, built only when the matcher first touches its bucket.  Sync
ingest, membership probes and candidate *counting* never build objects,
which is what keeps ``decode_atoms`` out of the persistent worker's
per-round hot path.

Ordering is inherited, not re-invented: materialized buckets are sorted
with the library's ``Atom`` order, so every enumeration the matcher
seeds from a columnar replica is bit-identical to one seeded from an
object instance — the equivalence matrix in
``tests/test_runner_equivalence.py`` pins the persistent engine, whose
worker replicas are all columnar, against the object-level engines.

Columnar instances are append-only (the chase never retracts);
``discard`` has no columnar counterpart by design.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.engine import wire
from repro.logic.atoms import Atom, build_atom
from repro.logic.predicates import Predicate
from repro.logic.terms import Term

if TYPE_CHECKING:  # annotation-only
    from repro.engine.wire import WireDecoder

_EMPTY_ATOMS: tuple[Atom, ...] = ()


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

    See the module docstring for the layout.  The matcher-facing methods
    mirror :class:`~repro.logic.instances.Instance` exactly (same names,
    same deterministic orders); the id-native methods (``add_row``,
    ``contains_row``, ``ingest_packed``) are the hot path the persistent
    protocol runs on.
    """

    __slots__ = (
        "_vocabulary",
        "_columns",
        "_row_sets",
        "_by_position",
        "_atom_rows",
        "_sorted_predicate",
        "_sorted_position",
    )

    def __init__(self, vocabulary: Vocabulary):
        self._vocabulary = vocabulary
        # pred_id -> flat row-major term-id column (arity ids per row).
        self._columns: dict[int, array] = {}
        # pred_id -> set of term-id row tuples (membership + dedup).
        self._row_sets: dict[int, set[tuple[int, ...]]] = {}
        # (pred_id, position, term_id) -> row indexes into the column.
        self._by_position: dict[tuple[int, int, int], list[int]] = {}
        # Lazy per-row Atom cache and the sorted bucket caches the
        # matcher reads (invalidated per key on append, like Instance).
        self._atom_rows: dict[int, list[Atom | None]] = {}
        self._sorted_predicate: dict[int, tuple[Atom, ...]] = {}
        self._sorted_position: dict[
            tuple[int, int, int], tuple[Atom, ...]
        ] = {}

    # ------------------------------------------------------------------
    # Id-native mutation
    # ------------------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    def row_count(self, pred_id: int) -> int:
        rows = self._row_sets.get(pred_id)
        return len(rows) if rows else 0

    def contains_row(self, pred_id: int, term_ids: tuple[int, ...]) -> bool:
        rows = self._row_sets.get(pred_id)
        return rows is not None and term_ids in rows

    def add_row(self, pred_id: int, term_ids: tuple[int, ...]) -> bool:
        """Append one row; return True when it was new."""
        rows = self._row_sets.get(pred_id)
        if rows is None:
            rows = self._row_sets[pred_id] = set()
            self._columns[pred_id] = array("q")
            self._atom_rows[pred_id] = []
        if term_ids in rows:
            return False
        column = self._columns[pred_id]
        arity = len(term_ids)
        row = len(column) // arity if arity else len(rows)
        rows.add(term_ids)
        column.extend(term_ids)
        self._atom_rows[pred_id].append(None)
        self._sorted_predicate.pop(pred_id, None)
        for position, term_id in enumerate(term_ids):
            key = (pred_id, position, term_id)
            bucket = self._by_position.get(key)
            if bucket is None:
                self._by_position[key] = [row]
            else:
                bucket.append(row)
            self._sorted_position.pop(key, None)
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

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def _atom_at(self, pred_id: int, row: int) -> Atom:
        cache = self._atom_rows[pred_id]
        atom = cache[row]
        if atom is None:
            vocabulary = self._vocabulary
            predicate = vocabulary.predicates[pred_id]
            terms = vocabulary.terms
            arity = predicate.arity
            base = row * arity
            column = self._columns[pred_id]
            atom = build_atom(
                predicate, tuple(terms[i] for i in column[base:base + arity])
            )
            cache[row] = atom
        return atom

    # ------------------------------------------------------------------
    # The matcher-facing Instance API slice
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._row_sets.values())

    def __iter__(self) -> Iterator[Atom]:
        for pred_id, rows in self._row_sets.items():
            for row in range(len(self._atom_rows[pred_id])):
                yield self._atom_at(pred_id, row)

    def __contains__(self, atom: Atom) -> bool:
        vocabulary = self._vocabulary
        pred_id = vocabulary.predicate_ids.get(atom.predicate)
        if pred_id is None:
            return False
        rows = self._row_sets.get(pred_id)
        if not rows:
            return False
        term_ids = vocabulary.term_ids
        ids = []
        for term in atom.args:
            term_id = term_ids.get(term)
            if term_id is None:
                return False
            ids.append(term_id)
        return tuple(ids) in rows

    def count(self, predicate: Predicate) -> int:
        pred_id = self._vocabulary.predicate_ids.get(predicate)
        return self.row_count(pred_id) if pred_id is not None else 0

    def position_count(
        self, predicate: Predicate, position: int, term: Term
    ) -> int:
        vocabulary = self._vocabulary
        pred_id = vocabulary.predicate_ids.get(predicate)
        if pred_id is None:
            return 0
        term_id = vocabulary.term_ids.get(term)
        if term_id is None:
            return 0
        bucket = self._by_position.get((pred_id, position, term_id))
        return len(bucket) if bucket else 0

    def sorted_with_predicate(self, predicate: Predicate) -> tuple[Atom, ...]:
        pred_id = self._vocabulary.predicate_ids.get(predicate)
        if pred_id is None:
            return _EMPTY_ATOMS
        cached = self._sorted_predicate.get(pred_id)
        if cached is None:
            rows = self._row_sets.get(pred_id)
            if not rows:
                return _EMPTY_ATOMS
            cached = tuple(
                sorted(
                    self._atom_at(pred_id, row) for row in range(len(rows))
                )
            )
            self._sorted_predicate[pred_id] = cached
        return cached

    def matching_position(
        self, predicate: Predicate, position: int, term: Term
    ) -> tuple[Atom, ...]:
        vocabulary = self._vocabulary
        pred_id = vocabulary.predicate_ids.get(predicate)
        if pred_id is None:
            return _EMPTY_ATOMS
        term_id = vocabulary.term_ids.get(term)
        if term_id is None:
            return _EMPTY_ATOMS
        key = (pred_id, position, term_id)
        cached = self._sorted_position.get(key)
        if cached is None:
            bucket = self._by_position.get(key)
            if bucket is None:
                return _EMPTY_ATOMS
            cached = tuple(
                sorted(self._atom_at(pred_id, row) for row in bucket)
            )
            self._sorted_position[key] = cached
        return cached

    def signature(self) -> list[Predicate]:
        """The predicates with at least one row (materialized view)."""
        predicates = self._vocabulary.predicates
        return [
            predicates[pred_id]
            for pred_id, rows in self._row_sets.items()
            if rows
        ]

    def sorted_atoms(self) -> list[Atom]:
        """Every atom, materialized, in the library's deterministic order."""
        return sorted(self)
