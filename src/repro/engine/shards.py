"""Hash-sharded routing of per-round deltas.

A :class:`ShardedIndex` partitions the atoms of a growing instance across
``W`` shards by stable atom hash.  The ``persistent`` round scheduler
feeds each worker the *delta view* of its shards (the slice of the atoms
added since the last round) as its pivot-candidate source; the union of
the views is the round's delta, so the merged enumeration is exactly the
sequential one.  Chase deltas are disjoint by construction, so atoms
route straight into the per-round views and only per-shard counters
outlive a round — the full instance (or a worker's replica of it) is the
only cumulative copy.  Shard assignment is hash-based and therefore
arbitrary — no result may depend on it, which the cross-engine
equivalence tests enforce by varying worker/shard counts.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance


def atom_weight(atom: Atom) -> int:
    """Wire-transport cost of one atom, in ids.

    Exactly what the atom occupies in a packed sync/pivot buffer of the
    interned-term transport (:mod:`repro.engine.wire`): one predicate id
    plus one term id per argument.  Each id costs 1–5 varint bytes on
    the wire (1 for the dense common case), so weights and sync share
    one encoding — a shard's weight is proportional, up to varint width
    and the one-time symbol-table entries, to the bytes its atoms cost
    to ship — and the adaptive router balances the quantity the
    persistent pool actually pays for.  Arity-awareness is what
    distinguishes a shard of wide atoms from a shard of narrow ones.
    """
    return 1 + len(atom.args)


class ShardedIndex:
    """Routes the atoms of an append-only instance into hash shards.

    Each atom lands in exactly one shard.  :meth:`ingest` trusts the
    caller to never re-ingest an atom (true of ``delta_since`` streams);
    per-shard atom counts and byte weights accumulate across batches for
    load-balance diagnostics.
    """

    __slots__ = ("_counts", "_weights", "_ingested")

    def __init__(self, shard_count: int):
        if shard_count < 1:
            raise ChaseError(
                f"a sharded index needs at least 1 shard, got {shard_count}"
            )
        self._counts = [0] * shard_count
        self._weights = [0] * shard_count
        self._ingested = 0

    @property
    def shard_count(self) -> int:
        return len(self._counts)

    def __len__(self) -> int:
        """Number of atoms ingested (equals the sum of the shard sizes)."""
        return self._ingested

    def shard_of(self, atom: Atom) -> int:
        """The shard an atom routes to (stable within a process)."""
        # checks: allow[D102] -- routing only decides *which worker* computes;
        # outputs re-merge by canonical trigger index, so results are
        # bit-identical across routings (pinned by the equivalence matrix).
        return hash(atom) % len(self._counts)

    def ingest(self, atoms: Iterable[Atom]) -> tuple[Instance, ...]:
        """Route ``atoms`` into their shards; return this batch's views.

        The views are small positional-indexed instances, one per shard,
        holding exactly the freshly routed atoms — the per-shard delta the
        scheduler hands each enumeration task.  Empty views are returned
        too (callers skip them) so view index == shard index.
        """
        counts = self._counts
        count = len(counts)
        views = tuple(Instance(add_top=False) for _ in range(count))
        ingested = 0
        weights = self._weights
        for atom in atoms:
            # checks: allow[D102] -- same routing-only bucketing as shard_of.
            index = hash(atom) % count
            if views[index].add(atom):
                counts[index] += 1
                weights[index] += atom_weight(atom)
                ingested += 1
        self._ingested += ingested
        return views

    def sizes(self) -> tuple[int, ...]:
        """Per-shard atom counts (load-balance diagnostics)."""
        return tuple(self._counts)

    def weights(self) -> tuple[int, ...]:
        """Cumulative per-shard estimated byte weights (diagnostics).

        The same :func:`atom_weight` estimate the size-balanced
        (``adaptive_routing``) scheduler placement applies to each
        round's shard views, accumulated over the run — the companion of
        :meth:`sizes` for judging whether a workload's shards are skewed
        by bytes rather than by atom count.  Accounting only: neither
        can ever affect results.
        """
        return tuple(self._weights)
