"""The benchmark's three workloads: seeded inputs, operations and oracles.

Every workload is a cycle of :class:`Op` objects.  An op calls exactly
one public API of the library (``semi_naive_closure``,
``check_property_p`` or ``answer``) on inputs generated from the seed,
and carries the observation an *independent* oracle expects.  No oracle
runs the engine under test:

* ``closure_pool``: reachability pairs computed here by a plain graph
  search over the generated edges;
* ``property_p``: the per-level tournament sizes and the loop level of
  ``merge_ladder(2)``, committed below, plus the report's own
  ``consistent_with_property_p``;
* ``serve_mix``: each request's ``entailed`` value and tuple set,
  evaluated by the small conjunctive-query matcher in this module over
  a chase saturated with the ``naive`` reference engine.

:func:`attach_oracles` fills the expectations in; the driver calls it
after set-up and before the timed loop, so neither pays for it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.chase import oblivious_chase
from repro.core import check_property_p
from repro.corpus.families import merge_ladder
from repro.engine import EngineConfig
from repro.logic import Atom, Constant, Instance, Predicate, Variable
from repro.logic.predicates import EDGE
from repro.obs import default_registry
from repro.rewriting.datalog import semi_naive_closure
from repro.rules import Rule, RuleSet, parse_query, parse_rules
from repro.serving import answer

#: ``closure_pool``'s engine: two persistent worker processes, one per CPU.
POOL_ENGINE = EngineConfig("persistent", workers=2)

#: Path length of the closure: 90 edges close to 4 095 pairs.
CLOSURE_EDGES = 90

#: ``merge_ladder(2)`` chased from {⊤}: the largest tournament of each
#: prefix ``Ch_0 .. Ch_6``, and the first level whose prefix has a loop.
PROPERTY_P_TOURNAMENTS = (0, 2, 2, 3, 5, 9, 23)
PROPERTY_P_LOOP_LEVEL = 3
PROPERTY_P_LEVELS = 6

#: The bdd ontology of ``serve_mix``: a marked node loops, and every edge
#: target starts a two-step successor chain.  The rules are linear, so
#: the set is bdd, and its chase terminates, so the naive oracle is exact.
BDD_ONTOLOGY = """
C(x) -> E(x,x)
E(x,y) -> exists z. S(y,z)
S(x,y) -> exists z. T(y,z)
"""

MARK = Predicate("C", 1)

#: Seed of the bdd graphs' shapes, which every benchmark seed shares.
SERVE_MIX_STRUCTURE = 2025

#: The non-bdd ontology of ``serve_mix``: transitivity, as in Example 1.
TC_ONTOLOGY = "E(x,y), E(y,z) -> E(x,z)"

#: The paper's loop, Tournaments_3 (both triangles), a bound path query
#: and the enumeration query (one answer variable absorbs an existential).
LOOP = parse_query("E(x,x)")
TRANSITIVE_TRIANGLE = parse_query("E(x,y), E(y,z), E(x,z)")
CYCLIC_TRIANGLE = parse_query("E(x,y), E(y,z), E(z,x)")
PATH = parse_query("E(x,y), E(y,z)", answers=["x", "z"])
ENUMERATION = parse_query("E(x,y), S(y,w)", answers=["x", "y"])


@dataclass
class Op:
    """One public-API call of a workload and what its oracle expects."""

    #: Identity within the cycle; the key of the counter-repeat check.
    label: str
    #: ``call(trace)`` runs the operation (``trace``: RunTrace or None).
    call: Callable
    #: Reduces a result to the value compared with ``expected``.
    observe: Callable
    #: Computes the expected observation without the engine under test.
    oracle: Callable
    expected: object = None


def attach_oracles(ops: list[Op]) -> None:
    for op in ops:
        op.expected = op.oracle()


# ----------------------------------------------------------------------
# closure_pool
# ----------------------------------------------------------------------


def _labels(rng: random.Random, count: int) -> list[int]:
    """``count`` distinct seed-chosen labels, ascending and of one width.

    Relabelling with them keeps the names' sort order and lengths, which
    the library's canonical orderings and term handling see; arbitrary
    labels changed one operation's time by up to 20 % from seed to seed
    with the same counters.
    """
    width = len(str(10 * count))
    return sorted(rng.sample(range(10**width, 10 ** (width + 1)), count))


def _constants(rng: random.Random, count: int, prefix: str) -> list[Constant]:
    """``count`` distinct constants whose names depend on the seed."""
    return [Constant(f"{prefix}{n}") for n in _labels(rng, count)]


def _path_edges(rng: random.Random, length: int, prefix: str) -> list[Atom]:
    """A directed path of ``length`` edges, relabelled, in shuffled order."""
    nodes = _constants(rng, length + 1, prefix)
    edges = [Atom(EDGE, (nodes[i], nodes[i + 1])) for i in range(length)]
    rng.shuffle(edges)
    return edges


def reachability(pairs) -> frozenset:
    """All ``(u, v)`` with a non-empty directed path from ``u`` to ``v``."""
    successors: dict = {}
    for source, target in pairs:
        successors.setdefault(source, set()).add(target)
    closure = set()
    for start in successors:
        stack = list(successors[start])
        seen: set = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors.get(node, ()))
        closure.update((start, node) for node in seen)
    return frozenset(closure)


def _edge_pairs(instance: Instance) -> frozenset:
    return frozenset(a.args for a in instance.with_predicate(EDGE))


def closure_pool_ops(seed: int, tiny: bool = False):
    rng = random.Random(seed)
    edges = _path_edges(rng, 12 if tiny else CLOSURE_EDGES, "n")
    instance = Instance(edges)
    rules = parse_rules(TC_ONTOLOGY, name="transitivity")
    return [
        Op(
            label="closure",
            call=lambda trace: semi_naive_closure(
                instance, rules, engine=POOL_ENGINE, trace=trace
            ),
            observe=_edge_pairs,
            oracle=lambda: reachability(a.args for a in edges),
        )
    ]


# ----------------------------------------------------------------------
# property_p
# ----------------------------------------------------------------------


def renamed_merge_ladder(rng: random.Random) -> RuleSet:
    """``merge_ladder(2)`` with its variables renamed, its rules in order.

    The seed does not reorder the rules: the order changes the matcher's
    work (see :func:`rule_order_skew`), and with the merge rule first a
    six-level check runs for minutes instead of about a second.
    """
    rules = list(merge_ladder(2).rules)
    names = sorted(
        {t.name for r in rules for a in r.body | r.head for t in a.args}
    )
    fresh = _labels(rng, len(names))
    renaming = {name: Variable(f"v{k}") for name, k in zip(names, fresh)}

    def rename(atom: Atom) -> Atom:
        return Atom(atom.predicate, tuple(renaming[t.name] for t in atom.args))

    renamed = [
        Rule({rename(a) for a in r.body}, {rename(a) for a in r.head}, r.label)
        for r in rules
    ]
    return RuleSet(renamed, name="merge_ladder_2")


def rule_order_skew() -> float:
    """How much more matching the chase does with the rules reordered.

    Matcher candidates of a five-level chase of ``merge_ladder(2)`` from
    {⊤} with its merge rule moved before the two successor rules, over
    those in the family's own order.  Both orders derive the same 233
    atoms with the same 1 849 head instantiations; an engine whose
    enumeration does not depend on rule order reads 1.0.
    """
    rules = list(merge_ladder(2).rules)
    candidates = []
    for order in (rules, [rules[-1], *rules[:-1]]):
        with default_registry().collect() as scope:
            oblivious_chase(Instance(), RuleSet(order), max_levels=5)
        candidates.append(scope.delta["matcher"]["candidates"])
    return candidates[1] / candidates[0]


def _property_p_observation(report) -> tuple:
    return (
        tuple(report.tournament_sizes),
        report.loop_level,
        report.consistent_with_property_p,
    )


def property_p_ops(seed: int, tiny: bool = False):
    rules = renamed_merge_ladder(random.Random(seed))
    levels = 4 if tiny else PROPERTY_P_LEVELS
    return [
        Op(
            label="check_property_p",
            # check_property_p takes no trace; the traced run attaches one
            # to the chase it starts (see tracing.Tracer).
            call=lambda trace: check_property_p(
                rules, Instance(), max_levels=levels
            ),
            observe=_property_p_observation,
            oracle=lambda: (
                PROPERTY_P_TOURNAMENTS[: levels + 1],
                PROPERTY_P_LOOP_LEVEL,
                True,
            ),
        )
    ]


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------


def _index(atoms) -> dict:
    """``(predicate, position, term) -> [args]`` plus ``predicate -> [args]``."""
    index: dict = {}
    for atom in atoms:
        index.setdefault(atom.predicate, []).append(atom.args)
        for position, term in enumerate(atom.args):
            index.setdefault((atom.predicate, position, term), []).append(atom.args)
    return index


def _matches(index: dict, atoms: list, binding: dict):
    """Yield every extension of ``binding`` mapping ``atoms`` into ``index``."""
    if not atoms:
        yield binding
        return
    first, rest = atoms[0], atoms[1:]
    candidates = index.get(first.predicate, ())
    for position, term in enumerate(first.args):
        image = term if term.is_constant else binding.get(term)
        if image is not None:
            candidates = index.get((first.predicate, position, image), ())
            break
    for args in candidates:
        extended = dict(binding)
        for term, value in zip(first.args, args):
            if term.is_constant:
                if term != value:
                    break
            elif extended.setdefault(term, value) != value:
                break
        else:
            yield from _matches(index, rest, extended)


def evaluate(atoms, query, bindings=()) -> tuple:
    """``(entailed, tuples)`` of ``query`` over a saturated atom set.

    Mirrors ``answer()``'s reading: with bindings, or for a Boolean
    query, ``tuples`` is None; otherwise it is the set of constant-only
    answer tuples and ``entailed`` is the query with its answers free.
    """
    index = _index(atoms)
    seed = dict(zip(query.answers, bindings))
    homs = _matches(index, sorted(query.atoms), seed)
    if bindings or not query.answers:
        return next(homs, None) is not None, None
    tuples, entailed = set(), False
    for hom in homs:
        entailed = True
        image = tuple(hom[v] for v in query.answers)
        if all(t.is_constant for t in image):
            tuples.add(image)
    return entailed, frozenset(tuples)


def _answer_observation(result) -> tuple:
    tuples = None if result.tuples is None else frozenset(result.tuples)
    return result.entailed, tuples


def _graph(structure, rng, nodes: int, edges: int, marks: int, prefix: str):
    """A graph drawn by ``structure``, relabelled and shuffled by ``rng``.

    Returns the instance and eight bound pairs of the path query, also
    chosen by ``structure``: four joined by a two-edge path in the chase
    (marked loops included) and four not.
    """
    pairs: set = set()
    while len(pairs) < edges:
        pairs.add(tuple(structure.sample(range(nodes), 2)))
    marked = structure.sample(range(nodes), marks)
    chased = pairs | {(m, m) for m in marked}
    two_paths = {(a, c) for a, b in chased for b2, c in chased if b == b2}
    candidates = [(a, b) for a in range(nodes) for b in range(nodes)]
    positive = [p for p in candidates if p in two_paths]
    negative = [p for p in candidates if p not in two_paths]
    bound = [
        *structure.sample(positive, min(4, len(positive))),
        *structure.sample(negative, 4),
    ]
    names = _constants(rng, nodes, prefix)
    atoms = [Atom(EDGE, (names[a], names[b])) for a, b in pairs]
    atoms += [Atom(MARK, (names[m],)) for m in marked]
    rng.shuffle(atoms)
    return Instance(atoms), [(names[a], names[b]) for a, b in bound]


def _request(label, instance, rules, query, bindings, strategy, saturated):
    return Op(
        label=label,
        call=lambda trace: answer(
            instance, rules, query, bindings, strategy=strategy, trace=trace
        ),
        observe=_answer_observation,
        oracle=lambda: evaluate(saturated(instance, rules), query, bindings),
    )


def serve_mix_ops(seed: int, tiny: bool = False):
    """A cycle of 36 bdd and 12 transitivity requests in one fixed order.

    Three quarters are decided by rewriting under the bdd ontology, one
    quarter by the goal-directed chase under transitivity, so the median
    falls in the first class and the 99th percentile in the second.  The
    graphs' shapes and the request order are fixed; the seed relabels
    the constants and shuffles atom order, so every seed does the same
    work.  With the order fixed, the collector's runs during the cycle
    fall on the same requests for every seed; a seeded order moved them
    onto other requests, the slowest among them, and with them the tail.
    """
    rng = random.Random(seed)
    bdd = parse_rules(BDD_ONTOLOGY, name="marked_successors")
    tc = parse_rules(TC_ONTOLOGY, name="transitivity")
    chases: dict = {}

    def saturated(instance, rules):
        key = (id(instance), id(rules))
        if key not in chases:
            chased = oblivious_chase(instance, rules, max_levels=64, engine="naive")
            if not chased.terminated:
                raise RuntimeError("the oracle chase did not terminate")
            chases[key] = chased.instance
        return chases[key]

    ops = []
    structure = random.Random(SERVE_MIX_STRUCTURE)
    nodes, edges = (10, 14) if tiny else (30, 45)
    for k in range(3):
        # Instance 0 has no marked node, so its loop request is negative.
        instance, bound = _graph(structure, rng, nodes, edges, k, f"g{k}_")
        requests = [
            ("loop", LOOP, ()),
            ("transitive_triangle", TRANSITIVE_TRIANGLE, ()),
            ("cyclic_triangle", CYCLIC_TRIANGLE, ()),
            ("enumerate", ENUMERATION, ()),
            *((f"path_pos{n}", PATH, pair) for n, pair in enumerate(bound[:-4])),
            *((f"path_neg{n}", PATH, pair) for n, pair in enumerate(bound[-4:])),
        ]
        for kind, query, bindings in requests:
            ops.append(
                _request(f"bdd{k}:{kind}", instance, bdd, query, bindings,
                         "auto", saturated)
            )
    length = 6 if tiny else 20
    for k in range(4):
        nodes_in_order = _constants(rng, length + 1, f"p{k}_")
        path = [
            Atom(EDGE, (nodes_in_order[i], nodes_in_order[i + 1]))
            for i in range(length)
        ]
        rng.shuffle(path)
        instance = Instance(path)
        first, last = nodes_in_order[0], nodes_in_order[-1]
        # The cyclic triangle, the slowest request by 1.7x, is 1 of the 48,
        # so the 99th percentile falls in the middle of its times.
        first_kind = ("cyclic_triangle", CYCLIC_TRIANGLE) if k == 0 else ("loop", LOOP)
        for kind, query, bindings in (
            (*first_kind, ()),
            ("path_pos", PATH, (first, last)),
            ("path_neg", PATH, (last, first)),
        ):
            ops.append(
                _request(f"tc{k}:{kind}", instance, tc, query, bindings,
                         "chase", saturated)
            )
    structure.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# The manifest
# ----------------------------------------------------------------------

#: Which end-to-end metrics each group of per-layer metrics should move,
#: on which workload.
LAYER_MAP = [
    (
        ("logic.match_candidates", "logic.match_searches",
         "logic.candidates_per_new_atom"),
        {"closure_pool": ["op_p50_ms"], "property_p": ["op_p50_ms"]},
    ),
    (("logic.rule_order_skew",), {"property_p": ["op_p50_ms"]}),
    (
        ("rules.heads_instantiated", "rules.heads_per_new_atom"),
        {"property_p": ["op_p50_ms"]},
    ),
    (
        ("engine.rounds", "engine.triggers", "engine.applied_ratio",
         "engine.enumerate_s", "engine.gate_s", "engine.fire_s",
         "engine.record_s", "engine.sync_s", "engine.probe_s"),
        {"closure_pool": ["op_p50_ms"], "serve_mix": ["op_p99_ms"]},
    ),
    (("chase.s", "chase.prefix_s"), {"property_p": ["op_p50_ms"]}),
    (
        ("workers.spawn_s", "workers.round_s", "workers.exec_s",
         "workers.codec_s", "workers.busy_share", "workers.pipe_bytes",
         "workers.shm_bytes", "workers.messages"),
        {"closure_pool": ["op_p50_ms"]},
    ),
    (
        ("rewriting.s", "rewriting.generated", "rewriting.disjuncts",
         "rewriting.complete_ratio"),
        {"serve_mix": ["op_p50_ms", "ops_per_s"]},
    ),
    (("queries.eval_s", "serving.self_s"), {"serve_mix": ["op_p50_ms"]}),
    (
        ("serving.chase_runs", "serving.rewrite_runs", "serving.goal_stops",
         "serving.delta_probes", "serving.rules_pruned"),
        {"serve_mix": ["op_p99_ms"]},
    ),
    (
        ("core.egraph_s", "core.tournament_s", "core.loop_s"),
        {"property_p": ["op_p50_ms"]},
    ),
]

WORKLOADS = {
    "closure_pool": {
        "build": closure_pool_ops,
        "engine": POOL_ENGINE,
        "input": f"transitivity over a {CLOSURE_EDGES}-edge path "
                 "(4095 closure pairs)",
        "seed_effect": "relabels constants and shuffles insertion order",
    },
    "property_p": {
        "build": property_p_ops,
        "engine": "delta",
        "input": f"merge_ladder(2) from {{top}}, {PROPERTY_P_LEVELS} levels "
                 "(2251 atoms)",
        "seed_effect": "renames variables",
        "probes": {"logic.rule_order_skew": rule_order_skew},
    },
    "serve_mix": {
        "build": serve_mix_ops,
        "engine": "delta",
        "input": "cycle of 36 auto requests on 3 bdd graphs (30 nodes, "
                 "45 edges) and 12 chase requests on 4 transitivity paths "
                 "(20 edges)",
        "seed_effect": "relabels constants and shuffles atom order",
    },
}


def layer_map(workload: str) -> dict:
    """The per-layer metrics expected to move ``workload``'s end-to-end ones."""
    return {
        metric: targets[workload]
        for metrics, targets in LAYER_MAP
        if workload in targets
        for metric in metrics
    }
