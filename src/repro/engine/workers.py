"""Persistent delta-fed process workers.

A :class:`WorkerPool` backs the ``persistent`` engine: each worker
process holds a *long-lived replica* of the instance — an id-native
:class:`~repro.engine.columnar.ColumnarInstance` — seeded once when the
pool first runs, and every later round ships only the **per-round delta**
(the atoms added since the replicas were last synced, straight from
:meth:`~repro.logic.instances.Instance.delta_since`).  Payload size is
proportional to what changed, not to what exists.

Protocol
--------
One duplex pipe per worker.  Atom and task payloads travel in the
interned-term columnar encoding of :mod:`repro.engine.wire`: the pool
owns a :class:`~repro.engine.wire.WireEncoder` whose append-only
term/predicate tables are the shared vocabulary, each message carries
the *table segment* its worker has not seen yet (tracked by a per-worker
high-water mark, so a symbol crosses a pipe once per worker, ever), and
the payloads themselves are flat ``array('I')`` id buffers.  Only the
message envelope below, the ``Rule`` objects and error tracebacks are
pickled — that is also how the pool accounts transport in
:data:`TRANSPORT_STATS`, which keeps per-command byte/atom counters.

``("seed", segment, rules, atoms_buf)``
    Replace the worker's rule list and rebuild its replica from the
    packed atom buffer (folded straight into the replica's id columns).
    Sent once per (pool, rule set) — at pool start, or if a caller
    reuses the pool under different rules.
``("sync", segment, sync_buf)``
    Fold the packed per-round delta into the replica and acknowledge.
    Sent to workers that have no pivots/tasks in a round where others
    do — replicas always mirror the parent instance at round start.
``("enumerate"|"derive", segment, sync_buf, pivot_buf)``
    One enumeration round: fold the packed ``sync_buf`` delta into the
    replica and the ``pivot_buf`` atoms (this worker's hash shards of the
    delta) into a delta store, then run the id kernel
    (:mod:`repro.engine.columnar`) — the shared delta decomposition over
    a matcher that joins on the replica's id rows — with the delta store
    as the pivot source.  Replies with one packed buffer, written
    straight from id tuples: per-rule image streams (``enumerate`` — the
    parent builds the triggers from the images) or the derived head rows
    (``derive``).
``("probe", segment, sync_buf, rules, tasks_buf)``
    The worker-resident half of the restricted chase's satisfaction
    claim (the *probe/claim* gate): fold the sync delta into the
    replica, then, for each packed ``(index, rule_index, image)`` task —
    one existential-free trigger of the round, decoded to term ids —
    instantiate the ground head rows *once* through the rule's head
    template and split them with ``contains_row`` against the replica.
    The reply packs the whole slice into **one** buffer pairing each
    index with its ``(present, missing)`` split: the head atoms already
    in the replica and the would-be witnesses it lacks.  The parent
    resolves the final claims lazily from the ``missing`` sets while it
    records the round in canonical order
    (:meth:`RoundScheduler.fire_split_round
    <repro.engine.scheduler.RoundScheduler.fire_split_round>`), and the
    claimed triggers' outputs are exactly ``present ∪ missing`` — no
    second instantiation, parent- or worker-side.  The round's distinct
    rules ride along so probing works even before the first enumeration
    seeds the worker.
``("fire", segment, rules, tasks_buf)``
    Instantiate head atoms for a slice of a round's triggers.  Each
    packed task is ``(index, rule_index, image, nulls)`` — the trigger's
    body image along the rule's canonical body-variable order and the
    parent-drawn nulls along its existential order, decoded to term ids
    and instantiated through the rule's head template on ids.  The reply
    packs each index with its output rows into one buffer.  The distinct
    rules of the round ride along (a few hundred bytes) so firing works
    even before the first enumeration seeds the worker.
``("stop",)``
    Acknowledge and exit.

Workers never talk to each other and never allocate null names — the
parent draws every null from the run's :class:`~repro.logic.terms.FreshSupply`
in canonical trigger order and ships the assignments, which is what keeps
sharded firing bit-identical to the sequential engines (see
:meth:`repro.engine.scheduler.RoundScheduler.fire_round`).  Every
non-interleaved round the :class:`~repro.engine.runner.ChaseRunner`
policies produce fires this way — and the restricted chase's rounds with
existential-free triggers (pure *or* mixed with an existential remainder)
resolve their satisfaction probes worker-side through ``probe`` before
the parent's canonical-order recording walk finalizes the claims.

Failure handling: a failed or dead worker surfaces as
:class:`~repro.errors.ChaseError`, but only after every outstanding reply
of the round has been drained, and the pool is marked *broken* — its
replicas may have half-applied the round's sync and an undrained pipe
could hand a stale round reply to the next reader, so ``close()`` skips
the stop handshake on a broken pool and tears the processes down by
closing the pipes instead.

Workers build no ``Atom``: replicas, deltas, task images and replies
are term-id rows.  The symbols themselves (table entries, and the
still-pickled rules through ``Term.__reduce__``) rebuild through their
constructors on arrival (:func:`repro.logic.terms.term_from_wire`), so
cached hashes are recomputed under the worker's own ``PYTHONHASHSEED``;
the worker only uses them to compile rule symbols to ids.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from typing import Iterable, Sequence

from repro.engine import shm as shm_transport
from repro.engine import wire
from repro.obs.trace import active_round
from repro.engine.columnar import (
    ColumnarInstance,
    HeadRows,
    Vocabulary,
    derive_rows,
    enumerate_images,
)
from repro.engine.wire import WireEncoder
from repro.errors import ChaseError
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.rules.rule import INSTANTIATION_STATS, Rule

_PROTOCOL = pickle.HIGHEST_PROTOCOL


class TransportStats:
    """Byte/message counters for the pool's pipe traffic.

    Module-global (like ``MATCHER_STATS`` in the homomorphism matcher) so
    tests and benchmarks can pin what the persistent protocol ships.

    Beyond the totals, :attr:`commands` keys per-command counters —
    ``{"messages", "bytes_sent", "bytes_received", "shm_bytes",
    "atoms_sent", "atoms_received"}`` for each of ``seed``/``sync``/
    ``enumerate``/``derive``/``probe``/``fire``/``stop`` — so tests and
    benchmarks can pin exactly where transport goes.  Sync deltas riding
    an enumerate/derive/probe message are counted under ``sync`` (atoms)
    while the envelope bytes land on the carrying command.

    The byte accounting is split by *channel*: ``bytes_sent``/
    ``bytes_received`` are **pipe** bytes (the pickled envelopes — with
    shared memory on, that is refs and small payloads only), and
    ``shm_bytes`` counts the payload bytes that traveled through
    :class:`~repro.engine.shm.SegmentPool` segments instead.  A
    payload's bytes land on exactly one channel, so the two gates in
    ``tools/check_transport_budget.py`` partition the transport.  Shm
    bytes for a shared sync buffer are attributed to ``sync`` (the
    buffer leaves the carrying envelope entirely) and counted once per
    publish, not per worker — segments are read in place, fan-out is
    free.

    :attr:`worker_seconds` aggregates the worker-side
    ``(decode_s, execute_s, encode_s)`` wall-clock triples stamped into
    every reply envelope (:func:`repro.engine.wire.pack_reply`), per
    command — the only non-deterministic counters in here, kept apart
    from the byte counters the budget gate pins.  Registered as the
    ``transport`` group of :func:`repro.obs.default_registry`.
    """

    __slots__ = (
        "bytes_sent",
        "bytes_received",
        "shm_bytes",
        "shm_publishes",
        "shm_segments",
        "messages",
        "seeds",
        "probes",
        "commands",
        "worker_seconds",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.shm_bytes = 0
        self.shm_publishes = 0
        self.shm_segments = 0
        self.messages = 0
        self.seeds = 0
        self.probes = 0
        self.commands: dict[str, dict[str, int]] = {}
        self.worker_seconds: dict[str, dict[str, float]] = {}

    def command(self, name: str) -> dict[str, int]:
        """The (auto-created) per-command counter dict for ``name``."""
        entry = self.commands.get(name)
        if entry is None:
            entry = self.commands[name] = {
                "messages": 0,
                "bytes_sent": 0,
                "bytes_received": 0,
                "shm_bytes": 0,
                "atoms_sent": 0,
                "atoms_received": 0,
            }
        return entry

    def record_send(self, name: str, nbytes: int) -> None:
        self.bytes_sent += nbytes
        self.messages += 1
        entry = self.command(name)
        entry["messages"] += 1
        entry["bytes_sent"] += nbytes

    def record_receive(self, name: str, nbytes: int) -> None:
        self.bytes_received += nbytes
        self.command(name)["bytes_received"] += nbytes

    def record_shm(self, name: str, nbytes: int) -> None:
        """Account one payload routed through a shared-memory segment."""
        self.shm_bytes += nbytes
        self.shm_publishes += 1
        self.command(name)["shm_bytes"] += nbytes

    def count_atoms_sent(self, name: str, count: int) -> None:
        if count:
            self.command(name)["atoms_sent"] += count

    def count_atoms_received(self, name: str, count: int) -> None:
        if count:
            self.command(name)["atoms_received"] += count

    def worker_timing(self, name: str) -> dict[str, float]:
        """The (auto-created) worker-timing aggregate for command ``name``."""
        entry = self.worker_seconds.get(name)
        if entry is None:
            entry = self.worker_seconds[name] = {
                "replies": 0,
                "decode_s": 0.0,
                "execute_s": 0.0,
                "encode_s": 0.0,
            }
        return entry

    def record_worker_timings(
        self, name: str, timings: tuple[float, float, float]
    ) -> None:
        decode_s, execute_s, encode_s = timings
        entry = self.worker_timing(name)
        entry["replies"] += 1
        entry["decode_s"] += decode_s
        entry["execute_s"] += execute_s
        entry["encode_s"] += encode_s

    def worker_totals(self) -> dict[str, float]:
        """Worker-side seconds summed across commands (for round deltas)."""
        totals = {"decode_s": 0.0, "execute_s": 0.0, "encode_s": 0.0}
        for entry in self.worker_seconds.values():
            totals["decode_s"] += entry["decode_s"]
            totals["execute_s"] += entry["execute_s"]
            totals["encode_s"] += entry["encode_s"]
        return totals

    def snapshot(self) -> dict:
        """A JSON-able copy: flat totals plus the per-command dicts."""
        snap: dict = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("commands", "worker_seconds")
        }
        snap["commands"] = {
            name: dict(entry) for name, entry in self.commands.items()
        }
        snap["worker_seconds"] = {
            name: dict(entry) for name, entry in self.worker_seconds.items()
        }
        return snap


#: Global transport counters; reset before a measured run.
TRANSPORT_STATS = TransportStats()


def fire_tasks(
    rules: Sequence[Rule], vocabulary: Vocabulary, tasks: Iterable[tuple]
) -> list[tuple[int, set[tuple]]]:
    """Instantiate the head rows of a slice of firing tasks.

    Each task is ``(index, rule_index, image_ids, null_ids)``, as
    :func:`repro.engine.wire.decode_fire_tasks` returns it.  The rows
    are the rule's :meth:`head template
    <repro.rules.rule.Rule.head_template>` over those ids — the same
    template :meth:`Trigger.output <repro.chase.trigger.Trigger.output>`
    reads, so a worker returns exactly the atoms the sequential engine
    would have produced.  Each task counts one head instantiation in
    :data:`~repro.rules.rule.INSTANTIATION_STATS`.
    """
    heads = [HeadRows(rule, vocabulary) for rule in rules]
    results = [
        (index, heads[rule_index](image, nulls))
        for index, rule_index, image, nulls in tasks
    ]
    INSTANTIATION_STATS.heads += len(results)
    return results


def probe_tasks(
    rules: Sequence[Rule], replica: ColumnarInstance, tasks: Iterable[tuple]
) -> list[tuple[int, list[tuple], list[tuple]]]:
    """Instantiate and satisfaction-probe a slice of ground-head triggers.

    Each task is ``(index, rule_index, image_ids)`` for an
    existential-free trigger: the body homomorphism grounds the whole
    head, so the head rows are instantiated exactly once (and counted,
    as in :func:`fire_tasks`) and split against ``replica`` (the
    worker's replica, mirroring the chase instance at round start) into
    the rows already ``present`` and the witnesses ``missing``.  The
    trigger is unsatisfied at round start iff ``missing`` is non-empty;
    the parent finalizes the claim against the atoms the round has
    recorded *before* the trigger (only the ``missing`` atoms need
    re-checking — ``present`` atoms can never leave an append-only chase
    instance), and a claimed trigger's output is ``present ∪ missing``.
    Rows are sorted so the reply bytes are deterministic.
    """
    heads = [HeadRows(rule, replica.vocabulary) for rule in rules]
    contains_row = replica.contains_row
    results: list[tuple[int, list[tuple], list[tuple]]] = []
    for index, rule_index, image in tasks:
        present: list[tuple] = []
        missing: list[tuple] = []
        for row in sorted(heads[rule_index](image)):
            (present if contains_row(*row) else missing).append(row)
        results.append((index, present, missing))
    INSTANTIATION_STATS.heads += len(results)
    return results


def _worker_main(conn) -> None:
    """The long-lived worker loop: one replica, one rule list, one wire
    table; per-round packed deltas in, one packed reply per round out.

    The replica is an id-native
    :class:`~repro.engine.columnar.ColumnarInstance` over the decoder's
    table replica: packed seed/sync buffers fold straight into its id
    rows (``decode_atoms`` stays off the worker entirely), and every
    command — derive, enumerate, probe, fire — runs on id tuples and
    packs its reply from them.  Payload fields may arrive as
    :class:`~repro.engine.shm.SegmentRef`\\ s instead of bytes; they are
    resolved against a per-worker :class:`~repro.engine.shm.SegmentReader`
    (attach once per segment, memcpy per read) before decoding.

    Every reply envelope carries the worker's
    ``(decode_s, execute_s, encode_s)`` wall-clock split
    (:func:`repro.engine.wire.pack_reply`): *decode* covers unpickling
    the envelope, resolving shm refs, replaying the table segment and
    unpacking the id buffers; *execute* the replica update and the
    actual shard work; *encode* packing the reply buffer.  The blocking
    ``recv`` (waiting for the parent) and the envelope's own final
    pickle are excluded — the triple measures worker compute, not pipe
    idleness.
    """
    perf = time.perf_counter
    rules: tuple[Rule, ...] = ()
    decoder = wire.WireDecoder()
    vocabulary = Vocabulary.of_decoder(decoder)
    replica = ColumnarInstance(vocabulary)
    reader = shm_transport.SegmentReader()
    resolve = shm_transport.resolve
    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):
            break
        decode_start = perf()
        message = pickle.loads(blob)
        command = message[0]
        if command == "stop":
            decoded = perf()
            conn.send_bytes(
                pickle.dumps(
                    wire.pack_reply(
                        "ok", None, (decoded - decode_start, 0.0, 0.0)
                    ),
                    _PROTOCOL,
                )
            )
            break
        try:
            if command == "seed":
                _, segment, rules, atoms_buf = message
                decoder.apply_segment(segment)
                atoms_buf = resolve(reader, atoms_buf)
                decoded = perf()
                replica = ColumnarInstance(vocabulary)
                replica.ingest_packed(atoms_buf)
                value = len(replica)
                executed = perf()
            elif command == "sync":
                _, segment, sync_buf = message
                decoder.apply_segment(segment)
                sync_buf = resolve(reader, sync_buf)
                decoded = perf()
                value = replica.ingest_packed(sync_buf)
                executed = perf()
            elif command in ("enumerate", "derive"):
                _, segment, sync_buf, pivot_buf = message
                decoder.apply_segment(segment)
                sync_buf = resolve(reader, sync_buf)
                pivot_buf = resolve(reader, pivot_buf)
                decoded = perf()
                replica.ingest_packed(sync_buf)
                delta = ColumnarInstance(vocabulary)
                delta.ingest_packed(pivot_buf)
                if command == "derive":
                    result = derive_rows(rules, replica, delta)
                    executed = perf()
                    value = wire.encode_derive_reply(result)
                else:
                    result = enumerate_images(rules, replica, delta)
                    executed = perf()
                    value = wire.encode_enumerate_reply(result)
            elif command == "probe":
                _, segment, sync_buf, probe_rules, tasks_buf = message
                decoder.apply_segment(segment)
                sync_buf = resolve(reader, sync_buf)
                tasks_buf = resolve(reader, tasks_buf)
                tasks = wire.decode_probe_tasks(tasks_buf, probe_rules)
                decoded = perf()
                replica.ingest_packed(sync_buf)
                results = probe_tasks(probe_rules, replica, tasks)
                executed = perf()
                value = wire.encode_probe_reply(results)
            elif command == "fire":
                _, segment, fire_rules, tasks_buf = message
                decoder.apply_segment(segment)
                tasks_buf = resolve(reader, tasks_buf)
                tasks = wire.decode_fire_tasks(tasks_buf, fire_rules)
                decoded = perf()
                pairs = fire_tasks(fire_rules, vocabulary, tasks)
                executed = perf()
                value = wire.encode_fire_reply(pairs)
            else:
                raise ChaseError(f"unknown worker command {command!r}")
            reply = wire.pack_reply(
                "ok",
                value,
                (
                    decoded - decode_start,
                    executed - decoded,
                    perf() - executed,
                ),
            )
        except Exception:
            reply = wire.pack_reply("error", traceback.format_exc())
        conn.send_bytes(pickle.dumps(reply, _PROTOCOL))
    reader.close()
    conn.close()


class WorkerPool:
    """A fixed-size pool of persistent, delta-fed worker processes.

    Lifecycle: the pool spawns lazily on first use, is owned by one
    :class:`~repro.engine.scheduler.RoundScheduler` (and therefore one
    chase/closure run), and is torn down by the scheduler's ``close()``.

    Replica consistency: the pool tracks the revision its replicas are
    synced to and computes each round's sync payload with
    ``instance.delta_since`` — so rounds the scheduler chose to run inline
    (single non-empty shard) are transparently caught up on the next
    fanned-out round.

    Wire tables: the pool owns the run's :class:`WireEncoder` and a
    per-worker ``(term, predicate)`` high-water mark into its tables.
    Segments are cut per worker **after** all of a broadcast's payloads
    are encoded, so each worker's segment covers every symbol its
    message references — including workers that skip a round (their mark
    simply stays behind until their next message catches them up).
    """

    def __init__(
        self,
        size: int,
        *,
        shared_memory: bool = False,
        shm_threshold: int = shm_transport.DEFAULT_THRESHOLD,
    ):
        if size < 1:
            raise ChaseError(
                f"a worker pool needs at least 1 worker, got {size}"
            )
        if shared_memory and not shm_transport.shm_available():
            raise ChaseError(
                "shared_memory requested but multiprocessing.shared_memory "
                "is unavailable on this platform"
            )
        self.size = size
        self.shared_memory = shared_memory
        self.shm_threshold = shm_threshold
        self._connections: list = []
        self._processes: list = []
        self._started = False
        self._broken = False
        self._rules: tuple[Rule, ...] | None = None
        self._replica_revision = 0
        self._encoder = WireEncoder()
        self._marks: list[tuple[int, int]] = [(0, 0)] * size
        self._segment_pool: shm_transport.SegmentPool | None = None

    @property
    def broken(self) -> bool:
        """True once a round failed and the pipes can no longer be trusted."""
        return self._broken

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _start(self) -> None:
        if self._broken:
            raise ChaseError(
                "this worker pool is broken after a failed round; "
                "close it and create a new pool"
            )
        if self._started:
            return
        if self.shared_memory and self._segment_pool is None:
            self._segment_pool = shm_transport.SegmentPool(self.shm_threshold)
        self._spawn(self.size)
        self._started = True

    def _spawn(self, count: int) -> None:
        """Start ``count`` fresh worker processes (appended in order)."""
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context("spawn")
        for _ in range(count):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn,),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)

    def close(self) -> None:
        """Stop every worker and reap the processes (idempotent).

        On a healthy pool this is the stop handshake: every pipe is in
        lockstep (each sent message has had its reply read), so a ``stop``
        is acknowledged and the workers exit.  A *broken* pool never
        reuses its desynced pipes — a stale round reply could be misread
        as the stop ack — so the handshake is skipped and the processes
        are terminated outright (their replicas are scratch state; under
        the fork start method siblings hold inherited copies of each
        other's pipe ends, so closing the parent ends alone would not
        even unblock them).
        """
        if not self._started:
            if self._segment_pool is not None:  # pragma: no cover - defensive
                self._segment_pool.close()
                self._segment_pool = None
            return
        if self._broken:
            for conn in self._connections:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - defensive
                    pass
            for process in self._processes:
                process.terminate()
                process.join(timeout=5.0)
        else:
            stop_blob = pickle.dumps(("stop",), _PROTOCOL)
            for conn in self._connections:
                try:
                    conn.send_bytes(stop_blob)
                except (BrokenPipeError, OSError):
                    continue
                TRANSPORT_STATS.record_send("stop", len(stop_blob))
            for conn in self._connections:
                try:
                    if conn.poll(1.0):
                        ack = conn.recv_bytes()
                        TRANSPORT_STATS.record_receive("stop", len(ack))
                        _, _, timings = wire.unpack_reply(pickle.loads(ack))
                        if timings is not None:
                            TRANSPORT_STATS.record_worker_timings(
                                "stop", timings
                            )
                except (EOFError, OSError):
                    pass
            for conn in self._connections:
                conn.close()
            for process in self._processes:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join(timeout=1.0)
        self._connections = []
        self._processes = []
        self._started = False
        self._rules = None
        self._replica_revision = 0
        # The workers' table replicas died with them: start a fresh
        # vocabulary so a reused pool re-ships symbols from scratch.
        self._encoder = WireEncoder()
        self._marks = [(0, 0)] * self.size
        if self._segment_pool is not None:
            self._segment_pool.close()
            self._segment_pool = None

    def resize(self, size: int) -> None:
        """Change the pool size mid-run, keeping symbol tables warm.

        The run's :class:`WireEncoder` and every *surviving* worker's
        table high-water mark are preserved — only the rows need
        re-shipping, not the vocabulary.  The next round therefore
        reseeds all workers (``_rules`` is cleared to force it): new
        workers get a segment covering the whole table, survivors get an
        empty-or-tiny segment plus the same shared row buffer, from
        which every worker rebuilds its replica.

        Shrinking stops the excess workers with the normal handshake —
        the pool is in lockstep between rounds, so their pipes are
        clean.  Raises on a broken pool (its pipes can't be trusted for
        the stop handshake; close it instead).
        """
        if size < 1:
            raise ChaseError(
                f"a worker pool needs at least 1 worker, got {size}"
            )
        if self._broken:
            raise ChaseError(
                "cannot resize a broken worker pool; close it and "
                "create a new one"
            )
        if not self._started:
            self.size = size
            self._marks = [(0, 0)] * size
            return
        if size < self.size:
            stop_blob = pickle.dumps(("stop",), _PROTOCOL)
            for worker in range(size, self.size):
                conn = self._connections[worker]
                try:
                    conn.send_bytes(stop_blob)
                    TRANSPORT_STATS.record_send("stop", len(stop_blob))
                    if conn.poll(1.0):
                        ack = conn.recv_bytes()
                        TRANSPORT_STATS.record_receive("stop", len(ack))
                except (BrokenPipeError, EOFError, OSError):
                    pass
                conn.close()
            for process in self._processes[size:]:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - defensive
                    process.terminate()
                    process.join(timeout=1.0)
            self._connections = self._connections[:size]
            self._processes = self._processes[:size]
            self._marks = self._marks[:size]
        elif size > self.size:
            self._spawn(size - self.size)
            self._marks = self._marks + [(0, 0)] * (size - self.size)
        self.size = size
        # Force a rows-only reseed on the next round: replicas must be
        # rebuilt on every worker (new ones are empty; survivors redo a
        # cheap idempotent fold), but the preserved marks mean the seed
        # segment for survivors carries no symbol they already hold.
        self._rules = None
        self._replica_revision = 0

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def _segment(self, worker: int):
        """Cut ``worker``'s table segment and advance its high-water mark."""
        term_mark, pred_mark = self._marks[worker]
        segment = self._encoder.segment(term_mark, pred_mark)
        self._marks[worker] = self._encoder.marks()
        return segment

    def _ship(self, command: str, buf: bytes):
        """Route one payload: an shm ref above the threshold, raw bytes
        below (or always, with shared memory off).

        Published payloads are accounted under ``command``'s
        ``shm_bytes``; whatever rides the pickle envelope lands in the
        pipe counters at send time as before.  The returned object is
        safe to share across every worker's message — segments are read
        in place, so fan-out costs nothing.
        """
        pool = self._segment_pool
        if pool is None or len(buf) < pool.threshold:
            return buf
        ref = pool.publish(buf)
        TRANSPORT_STATS.record_shm(command, len(buf))
        TRANSPORT_STATS.shm_segments = max(
            TRANSPORT_STATS.shm_segments, pool.segments_created
        )
        return ref

    def _collect_segments(self) -> None:
        """Recycle the broadcast's segments (every reply is gathered, so
        no live worker can still hold a ref into them)."""
        if self._segment_pool is not None:
            self._segment_pool.collect()

    def _shared_messages(self, build) -> list[tuple]:
        """One message per worker, shared by equal table marks.

        ``build(segment)`` constructs the message; workers whose marks
        coincide receive the *same object*, which the broadcast pickles
        once.  Every worker's mark is advanced to current.
        """
        cache: dict[tuple[int, int], tuple] = {}
        messages: list[tuple] = []
        for worker in range(self.size):
            key = self._marks[worker]
            message = cache.get(key)
            if message is None:
                message = build(self._segment(worker))
                cache[key] = message
            else:
                self._marks[worker] = self._encoder.marks()
            messages.append(message)
        return messages

    def _send_bytes(self, worker: int, blob: bytes, command: str) -> None:
        TRANSPORT_STATS.record_send(command, len(blob))
        self._connections[worker].send_bytes(blob)

    def _send(self, worker: int, message: tuple) -> None:
        # checks: allow[T202] -- envelope choke point: every message reaching
        # here is a command tuple built by the round methods below.
        self._send_bytes(worker, pickle.dumps(message, _PROTOCOL), message[0])

    def _receive(self, worker: int, command: str = "reply"):
        try:
            blob = self._connections[worker].recv_bytes()
        except (EOFError, OSError) as exc:
            raise ChaseError(
                f"persistent worker {worker} died mid-round: {exc!r}"
            ) from exc
        TRANSPORT_STATS.record_receive(command, len(blob))
        status, value, timings = wire.unpack_reply(pickle.loads(blob))
        if timings is not None:
            TRANSPORT_STATS.record_worker_timings(command, timings)
        if status != "ok":
            raise ChaseError(
                f"persistent worker {worker} failed:\n{value}"
            )
        return value

    def _broadcast_and_gather(
        self, messages: Sequence[tuple | None]
    ) -> list[tuple[int, object]]:
        """Send one message per worker (None skips), gather the replies.

        Returns ``(worker, reply)`` pairs in worker order.  Repeated
        message *objects* (the seed broadcast, sync-only rounds) are
        pickled once and the same bytes written to every pipe — the
        protocol's largest payloads serialize O(1) times, not O(workers).

        A failed reply (worker error or death) does not abort the gather:
        every remaining sent worker is still drained first, so no pipe is
        left holding a stale round reply that a later reader (the stop
        handshake, a retried round) would misread as its own.  Only then
        is the first failure raised — and the pool marked broken, because
        the failed worker's replica state is unknown.
        """
        blobs: dict[int, bytes] = {}
        sent = []
        failure: ChaseError | None = None
        for worker, message in enumerate(messages):
            if message is None:
                continue
            blob = blobs.get(id(message))
            if blob is None:
                # checks: allow[T202] -- envelope choke point: broadcast
                # messages are command tuples built by the round methods.
                blob = pickle.dumps(message, _PROTOCOL)
                blobs[id(message)] = blob
            try:
                self._send_bytes(worker, blob, message[0])
            except (BrokenPipeError, OSError) as exc:
                # A dead worker at send time: stop broadcasting (the
                # round is lost either way) but still drain the workers
                # already sent to, below.
                failure = ChaseError(
                    f"persistent worker {worker} died mid-round: {exc!r}"
                )
                break
            sent.append(worker)
        replies: list[tuple[int, object]] = []
        for worker in sent:
            try:
                replies.append(
                    (worker, self._receive(worker, messages[worker][0]))
                )
            except ChaseError as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            self._broken = True
            raise failure
        return replies

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------

    def _slice(self, per_worker: Sequence[list], worker: int) -> list:
        return per_worker[worker] if worker < len(per_worker) else []

    def _seed(self, rules: tuple[Rule, ...], instance: Instance) -> None:
        TRANSPORT_STATS.seeds += 1
        encoder = self._encoder
        recorder = active_round()
        sync_start = time.perf_counter() if recorder is not None else 0.0
        encoder.intern_rules(rules)
        atoms = instance.sorted_atoms()
        atoms_buf = encoder.encode_atoms(atoms)
        if recorder is not None:
            recorder.add_phase("sync", time.perf_counter() - sync_start)
        atoms_payload = self._ship("seed", atoms_buf)
        messages = self._shared_messages(
            lambda segment: ("seed", segment, rules, atoms_payload)
        )
        TRANSPORT_STATS.count_atoms_sent("seed", len(atoms) * self.size)
        try:
            self._broadcast_and_gather(messages)
        finally:
            self._collect_segments()
        self._rules = rules
        self._replica_revision = instance.revision

    def run_round(
        self,
        mode: str,
        rules: Sequence[Rule],
        instance: Instance,
        pivots_per_worker: Sequence[list[Atom]],
    ) -> list:
        """Run one enumeration (or derivation) round across the pool.

        ``pivots_per_worker`` assigns each worker its slice of the round's
        delta as pivot source (the scheduler's hash-shard routing); the
        sync payload — everything the replicas have not seen yet — is
        computed here and shipped to *every* worker, so replicas always
        mirror the parent instance at round start.  Returns the non-empty
        workers' results in worker order (per-rule image dicts for
        ``enumerate``, derived atom sets for ``derive``).
        """
        self._start()
        rules = tuple(rules)
        if self._rules is None or rules != self._rules:
            self._seed(rules, instance)
        recorder = active_round()
        sync_start = time.perf_counter() if recorder is not None else 0.0
        sync_atoms = instance.delta_since(self._replica_revision)
        self._replica_revision = instance.revision
        encoder = self._encoder
        sync_buf = encoder.encode_atoms(sync_atoms) if sync_atoms else b""
        if recorder is not None:
            recorder.add_phase("sync", time.perf_counter() - sync_start)
        pivot_lists = [
            self._slice(pivots_per_worker, worker)
            for worker in range(self.size)
        ]
        # Encode every payload of the broadcast *before* cutting any
        # worker's segment — a pivot atom for worker N may intern a
        # symbol that worker 0's segment must already carry.
        pivot_bufs = [
            encoder.encode_atoms(pivots) if pivots else b""
            for pivots in pivot_lists
        ]
        # Route the bulk payloads: the sync delta is published once and
        # the same ref rides every worker's envelope.
        sync_payload = self._ship("sync", sync_buf) if sync_buf else b""
        pivot_payloads = [
            self._ship(mode, buf) if buf else b"" for buf in pivot_bufs
        ]
        # One shared sync-only message per table mark for pivotless
        # workers: the broadcast pickles each distinct object once.
        sync_cache: dict[tuple[int, int], tuple] = {}
        messages: list[tuple | None] = []
        gathered_workers: list[int] = []
        for worker in range(self.size):
            if pivot_lists[worker]:
                messages.append(
                    (
                        mode,
                        self._segment(worker),
                        sync_payload,
                        pivot_payloads[worker],
                    )
                )
                gathered_workers.append(worker)
                TRANSPORT_STATS.count_atoms_sent("sync", len(sync_atoms))
                TRANSPORT_STATS.count_atoms_sent(
                    mode, len(pivot_lists[worker])
                )
            elif sync_atoms:
                key = self._marks[worker]
                message = sync_cache.get(key)
                if message is None:
                    message = ("sync", self._segment(worker), sync_payload)
                    sync_cache[key] = message
                else:
                    self._marks[worker] = encoder.marks()
                messages.append(message)
                TRANSPORT_STATS.count_atoms_sent("sync", len(sync_atoms))
            else:
                messages.append(None)
        try:
            replies = dict(self._broadcast_and_gather(messages))
        finally:
            self._collect_segments()
        # Sync-only workers just acknowledge; keep the shape (non-empty
        # pivot slices only) the scheduler's merge expects.
        results = []
        for worker in gathered_workers:
            if mode == "derive":
                derived = wire.decode_derive_reply(encoder, replies[worker])
                TRANSPORT_STATS.count_atoms_received("derive", len(derived))
                results.append(derived)
            else:
                results.append(
                    wire.decode_enumerate_reply(
                        encoder, rules, replies[worker]
                    )
                )
        return results

    def probe_round(
        self,
        rules: Sequence[Rule],
        instance: Instance,
        tasks_per_worker: Sequence[list[tuple]],
    ) -> list[tuple[int, tuple[Atom, ...], tuple[Atom, ...]]]:
        """Fan one round's satisfaction probes across the pool.

        ``rules`` are the round's distinct rules (shipped per message,
        like ``fire`` — the probe never reseeds the pool's resident rule
        list), ``tasks_per_worker`` assigns each worker its slice of the
        round's existential-free triggers as ``(index, rule_index,
        image)`` tasks (the trigger's body image), packed into one flat
        buffer per worker.  The
        sync payload — everything the replicas have not seen yet — is
        computed here and shipped to *every* worker, so each probe runs
        against a replica mirroring the chase instance at round start.
        Each worker answers its whole slice in **one** packed reply; the
        round counts once in ``TRANSPORT_STATS.probes``.  Returns the
        concatenated ``(index, present, missing)`` triples; the caller
        re-orders by index, so reply order is irrelevant.
        """
        self._start()
        TRANSPORT_STATS.probes += 1
        rules = tuple(rules)
        recorder = active_round()
        sync_start = time.perf_counter() if recorder is not None else 0.0
        sync_atoms = instance.delta_since(self._replica_revision)
        self._replica_revision = instance.revision
        encoder = self._encoder
        sync_buf = encoder.encode_atoms(sync_atoms) if sync_atoms else b""
        if recorder is not None:
            recorder.add_phase("sync", time.perf_counter() - sync_start)
        task_lists = [
            self._slice(tasks_per_worker, worker)
            for worker in range(self.size)
        ]
        task_bufs = [
            encoder.encode_probe_tasks(rules, tasks) if tasks else b""
            for tasks in task_lists
        ]
        sync_payload = self._ship("sync", sync_buf) if sync_buf else b""
        task_payloads = [
            self._ship("probe", buf) if buf else b"" for buf in task_bufs
        ]
        sync_cache: dict[tuple[int, int], tuple] = {}
        messages: list[tuple | None] = []
        probe_workers: list[int] = []
        for worker in range(self.size):
            if task_lists[worker]:
                messages.append(
                    (
                        "probe",
                        self._segment(worker),
                        sync_payload,
                        rules,
                        task_payloads[worker],
                    )
                )
                probe_workers.append(worker)
                TRANSPORT_STATS.count_atoms_sent("sync", len(sync_atoms))
            elif sync_atoms:
                key = self._marks[worker]
                message = sync_cache.get(key)
                if message is None:
                    message = ("sync", self._segment(worker), sync_payload)
                    sync_cache[key] = message
                else:
                    self._marks[worker] = encoder.marks()
                messages.append(message)
                TRANSPORT_STATS.count_atoms_sent("sync", len(sync_atoms))
            else:
                messages.append(None)
        try:
            replies = dict(self._broadcast_and_gather(messages))
        finally:
            self._collect_segments()
        results: list[tuple[int, tuple[Atom, ...], tuple[Atom, ...]]] = []
        for worker in probe_workers:
            decoded = wire.decode_probe_reply(encoder, replies[worker])
            TRANSPORT_STATS.count_atoms_received(
                "probe",
                sum(len(p) + len(m) for _, p, m in decoded),
            )
            results.extend(decoded)
        return results

    def fire(
        self,
        rules: Sequence[Rule],
        tasks_per_worker: Sequence[list[tuple]],
    ) -> list[tuple[int, set[Atom]]]:
        """Fan one round's firing tasks across the pool.

        Tasks are ``(index, rule_index, image, nulls)``: the trigger's
        body image and its parent-drawn nulls along the rule's
        existential order.  They are packed into one flat buffer per
        worker and each worker answers its whole slice in one packed
        reply.  Returns the
        concatenated ``(index, output_atoms)`` pairs; the caller
        re-orders by index, so reply order is irrelevant.
        """
        self._start()
        rules = tuple(rules)
        encoder = self._encoder
        task_lists = [
            self._slice(tasks_per_worker, worker)
            for worker in range(self.size)
        ]
        task_bufs = [
            encoder.encode_fire_tasks(rules, tasks) if tasks else None
            for tasks in task_lists
        ]
        task_payloads = [
            self._ship("fire", buf) if buf is not None else None
            for buf in task_bufs
        ]
        messages: list[tuple | None] = [
            ("fire", self._segment(worker), rules, task_payloads[worker])
            if task_payloads[worker] is not None
            else None
            for worker in range(self.size)
        ]
        try:
            replies = self._broadcast_and_gather(messages)
        finally:
            self._collect_segments()
        results: list[tuple[int, set[Atom]]] = []
        for _, reply in replies:
            decoded = wire.decode_fire_reply(encoder, reply)
            TRANSPORT_STATS.count_atoms_received(
                "fire", sum(len(atoms) for _, atoms in decoded)
            )
            results.extend(decoded)
        return results

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
