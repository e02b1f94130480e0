"""``repro.engine`` — the chase execution engine subsystem.

Every saturation in the library (the three chase variants and the
semi-naive Datalog closure) runs on the machinery in this package: one
strategy-driven saturation loop (:class:`ChaseRunner` +
:class:`VariantPolicy` in :mod:`repro.engine.runner`), one shared
pivot-decomposition core, one engine registry, one scheduler for
persistent-pool fan-out, and one batched firing path.  The variant
modules under ``repro.chase`` (and the closure in
``repro.rewriting.datalog``) are thin policy declarations over the
runner.

Engine selection
----------------
APIs that run rounds accept ``engine=`` as a registered name or an
explicit :class:`EngineConfig`:

======================  =====================================================
``engine="delta"``      Inline semi-naive evaluation (the default
                        everywhere): each round matches rule bodies
                        pivoted on the previous round's delta through the
                        positional index.  The closure derives a whole
                        round's heads in one batched pass, with no
                        trigger objects.
``engine="naive"``      Full re-match reference engine; the ground truth
                        the others are tested against.
``engine="persistent"`` Sharded scheduler on persistent delta-fed process
                        workers (:class:`WorkerPool`): id-native
                        :class:`ColumnarInstance` replicas seeded once,
                        per-round delta sync, an id kernel that joins on
                        the replicas' rows, sharded firing and
                        worker-resident satisfaction probes across the
                        pool.  ``EngineConfig("persistent", workers=8)``
                        sizes the pool (``workers=1`` runs the scheduler
                        inline, with no processes).
======================  =====================================================

Unknown names raise :class:`~repro.errors.ChaseError` listing the valid
engines; :func:`register_engine` adds presets.

Sharding
--------
The persistent engine routes each round's delta through a
:class:`~repro.engine.shards.ShardedIndex`: atoms are partitioned by a
hash that every process agrees on into per-shard positional-indexed
views, one enumeration task runs per
non-empty shard against the full instance (or a worker's replica of it),
and there is one shard per worker: shard *i* goes to worker *i*.  Shard
assignment is invisible in the results.

Determinism guarantees
----------------------
All engines fire the same triggers in the same canonical order — per rule
in rule-set order, matches sorted by body-variable image — and therefore
produce bit-identical :class:`~repro.chase.result.ChaseResult` instances:
same atoms, levels, timestamps, null names and provenance records.  For
the persistent engine this holds for *every* worker count because
the merge is a keyed union on canonical images followed by a sort; the
equivalence suites (``tests/test_runner_equivalence.py``,
``tests/test_engine_sharding.py``) pin this across the corpus families.

Performance model
-----------------
The batched firing path (:mod:`repro.engine.batch`) amortizes provenance
recording over a whole round, and the closure's derivation mode skips
trigger identity entirely — the ``delta`` closure runs it inline (see
``benchmarks/bench_exp13_closure.py``).  The persistent pool trades
per-round delta shipping for GIL-free matching and firing on multicore
machines (``benchmarks/bench_exp14_persistent.py``).
"""

from repro.engine.batch import RoundOutcome, fire_round
from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.engine.config import (
    DEFAULT_PERSISTENT_WORKERS,
    EngineConfig,
    available_engines,
    register_engine,
    registered_engines,
    resolve_engine,
)
from repro.engine.core import (
    any_delta_image,
    as_delta_instance,
    delta_images,
    derive_delta_atoms,
    derive_round_atoms,
    image_sort_key,
)
from repro.engine.runner import ChaseRunner, RoundPlan, VariantPolicy
from repro.engine.scheduler import RoundScheduler
from repro.engine.shards import ShardedIndex
from repro.engine.wire import WireDecoder, WireEncoder
from repro.engine.workers import TRANSPORT_STATS, WorkerPool

__all__ = [
    "ChaseRunner",
    "ColumnarInstance",
    "DEFAULT_PERSISTENT_WORKERS",
    "EngineConfig",
    "RoundOutcome",
    "RoundPlan",
    "RoundScheduler",
    "VariantPolicy",
    "ShardedIndex",
    "TRANSPORT_STATS",
    "Vocabulary",
    "WireDecoder",
    "WireEncoder",
    "WorkerPool",
    "any_delta_image",
    "as_delta_instance",
    "available_engines",
    "delta_images",
    "derive_delta_atoms",
    "derive_round_atoms",
    "fire_round",
    "image_sort_key",
    "register_engine",
    "registered_engines",
    "resolve_engine",
]
