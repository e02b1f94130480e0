"""Factorised trigger enumeration: disconnected rule bodies.

The delta core (:mod:`repro.engine.core`) matches each connected body
component once and builds a round's body images as the disjoint union
``⋃_i old_<i × new_i × full_>i``.  This suite pins

* the body factorisation cached on :class:`~repro.rules.rule.Rule`
  (components, image assembly, head template);
* :func:`~repro.engine.core.delta_images` against a brute-force
  reference — the same images, each exactly once;
* the differential matrix: every engine (``delta``, ``persistent`` at
  one and two workers) bit-identical to ``naive`` on a corpus of
  disconnected bodies, under the oblivious, semi-oblivious and restricted
  chases — every provenance record's ``trigger.mapping`` included;
* exact matcher/instantiation work on the paper's tournament builder.
"""

from __future__ import annotations

import pytest

from repro.chase import oblivious_chase, restricted_chase, semi_oblivious_chase
from repro.chase.trigger import Trigger
from repro.corpus import bowtie_merge, example_1_bdd, tournament_builder
from repro.corpus.families import merge_ladder
from repro.engine import (
    EngineConfig,
    any_delta_image,
    delta_images,
    image_sort_key,
)
from repro.logic.atoms import Atom, atom
from repro.logic.homomorphisms import homomorphisms
from repro.logic.instances import Instance
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import Constant, Null, Variable
from repro.obs import default_registry
from repro.rules.parser import parse_instance, parse_rules
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


def _rule(text):
    (rule,) = parse_rules(text)
    return rule


# ----------------------------------------------------------------------
# Body factorisation on Rule
# ----------------------------------------------------------------------


class TestBodyComponents:
    def test_connected_body_is_one_component_in_body_order(self):
        rule = _rule("E(x,y), E(y,z) -> E(x,z)")
        components, assemble = rule.body_components()
        assert len(components) == 1
        assert components[0].atoms == rule.sorted_body()
        assert components[0].terms == rule.body_variable_order()
        assert assemble is None

    def test_components_split_on_shared_variables_only(self):
        rule = _rule("A(x), B(y,A), C(y,w), D(A) -> F(x,w)")
        components, _ = rule.body_components()
        assert [[str(a) for a in c.atoms] for c in components] == [
            ["A(x)"],
            ["B(y, A)", "C(y, w)"],
            ["D(A)"],
        ]
        assert [c.terms for c in components] == [
            (Variable("x"),),
            (Variable("w"), Variable("y")),
            (),
        ]

    def test_assembler_reorders_interleaved_component_variables(self):
        # Canonical order is (w, x, y, z); components are (x, z), (w, y).
        rule = _rule("E(x,z), E(y,w) -> E(x,w)")
        components, assemble = rule.body_components()
        assert [c.terms for c in components] == [
            (Variable("x"), Variable("z")),
            (Variable("w"), Variable("y")),
        ]
        assert assemble(("x", "z", "w", "y")) == ("w", "x", "y", "z")

    def test_head_template_matches_substitution_semantics(self):
        rule = _rule("E(x,y), P(A) -> exists z. F(y,z,B), G(x)")
        hom = next(homomorphisms(rule.body, parse_instance("E(a,b), P(A)")))
        null, z = Null("_n0"), Variable("z")
        expected = Substitution({**hom.as_dict(), z: null}).apply_atoms(
            rule.head
        )
        assert sorted(str(a) for a in expected) == ["F(b, _n0, B)", "G(a)"]
        image = Trigger(rule, hom).image()
        assert image == (Constant("a"), Constant("b"))
        assert rule.head_atoms(image, (null,)) == expected
        assert rule.instantiate_head(hom, {z: null}) == expected


# ----------------------------------------------------------------------
# delta_images against a brute-force reference
# ----------------------------------------------------------------------


def _reference_images(rule, instance, delta):
    """Images of every body homomorphism touching ``delta``."""
    order = rule.body_variable_order()
    images = set()
    for hom in homomorphisms(rule.body, instance):
        if any(hom.apply_atom(a) in delta for a in rule.body):
            images.add(tuple(hom.apply_term(v) for v in order))
    return images


REFERENCE_RULES = [
    "E(x,y), E(y,z) -> E(x,z)",
    "E(x,xp), E(y,yp) -> E(x,yp)",
    "E(x,z), E(y,w) -> E(x,w)",
    "A(x), E(y,w), B(u) -> F(x,w,u)",
    "top, E(x,y) -> E(y,x)",
    "P(A), E(x,y) -> E(y,x)",
    "E(x,A), E(y,z) -> F(x,z)",
    "E(x,y), Missing(z) -> F(x,z)",
]


@pytest.mark.parametrize("text", REFERENCE_RULES)
def test_delta_images_exactly_once(text):
    rule = _rule(text)
    old = [atom("E", "a", "b"), atom("E", "b", "A"), atom("A", "a")]
    old += [atom("B", "c")]
    new = [atom("E", "A", "c"), atom("E", "c", "a"), atom("B", "a")]
    new += [atom("P", "A"), atom("A", "c")]
    instance = Instance(old + new)
    delta = Instance(new, add_top=False)
    images = list(delta_images(rule, instance, delta))
    assert len(images) == len(set(images))
    assert set(images) == _reference_images(rule, instance, set(new))
    assert any_delta_image([rule], instance, new) == bool(images)
    # Full enumeration (delta is the instance): every homomorphism.
    full = list(delta_images(rule, instance, instance))
    assert len(full) == len(set(full))
    assert set(full) == _reference_images(rule, instance, set(instance))


def test_body_nulls_bind_but_stay_out_of_the_image():
    # A null in a rule body is matched like a variable, yet the trigger
    # identity is the image along the body variables only: homomorphisms
    # that differ on the null alone are one image.
    n = Null("n")
    e = Predicate("E", 2)
    x, y = Variable("x"), Variable("y")
    rule = Rule([Atom(e, (n, x)), Atom(e, (y, y))], [atom("F", "x", "y")])
    a, b, c = Constant("a"), Constant("b"), Constant("c")
    instance = Instance(
        [Atom(e, (a, b)), Atom(e, (c, b)), Atom(e, (b, b))], add_top=False
    )
    images = list(delta_images(rule, instance, instance))
    assert sorted(images) == [(b, b)]
    delta = Instance([Atom(e, (c, b))], add_top=False)
    assert list(delta_images(rule, instance, delta)) == [(b, b)]


def test_image_sort_key_matches_term_order():
    terms = [Constant("b"), Null("_n1"), Variable("a"), Constant("a")]
    images = [(s, t) for s in terms for t in terms]
    assert sorted(images, key=image_sort_key) == sorted(images)


# ----------------------------------------------------------------------
# The differential matrix
# ----------------------------------------------------------------------


def _records_with_mappings(result):
    return [(r, r.trigger.mapping) for r in result.records()]


def assert_bit_identical(a, b):
    assert a.instance == b.instance
    assert a.levels_completed == b.levels_completed
    assert a.terminated == b.terminated
    assert _records_with_mappings(a) == _records_with_mappings(b)
    for term in a.instance.active_domain():
        assert a.timestamp(term) == b.timestamp(term)
    for fact in a.instance:
        assert a.atom_level(fact) == b.atom_level(fact)


def _entry(make):
    entry = make()
    return lambda: entry.instance.copy(), entry.rules


#: Disconnected bodies: the paper's merge rule (three corpus entries), a
#: three-component body, nullary and ground components, a component with
#: a constant, and a component that never matches (an empty factor).
CORPUS = [
    ("example_1_bdd", *_entry(example_1_bdd), 3),
    ("tournament_builder", *_entry(tournament_builder), 4),
    (
        # Grown by B(z) for every fresh null: later rounds pair old A
        # images with new B images.
        "bowtie_merge",
        lambda: bowtie_merge().instance.copy(),
        bowtie_merge().rules | parse_rules("E(y,z) -> B(z)"),
        3,
    ),
    (
        "three_components",
        lambda: parse_instance("A(a), B(b,c), C(d)"),
        parse_rules(
            "A(x), B(y,w), C(u) -> F(x,w,u)\n"
            "B(x,y) -> exists z. B(y,z)\n"
            "F(x,y,z) -> C(y)\n"
            "C(x) -> A(x)"
        ),
        3,
    ),
    (
        "nullary_and_ground",
        lambda: parse_instance("E(A,b)"),
        parse_rules(
            "top, E(x,y) -> exists z. E(y,z)\n"
            "E(x,y) -> P(x)\n"
            "P(A), E(x,y) -> F(y,x)"
        ),
        3,
    ),
    (
        "constant_component",
        lambda: parse_instance("E(b,A), E(c,d)"),
        parse_rules(
            "E(x,A), E(y,z) -> F(x,z)\nF(x,y) -> exists z. E(y,z)\n"
            "E(x,y) -> E(y,A)"
        ),
        3,
    ),
    (
        "empty_factor",
        lambda: parse_instance("E(a,b)"),
        parse_rules(
            "E(x,y), Missing(z) -> exists w. E(y,w)\n"
            "E(x,y) -> exists z. E(y,z)\n"
            "E(x,z), E(y,w) -> F(x,w)"
        ),
        3,
    ),
]
CORPUS_IDS = [c[0] for c in CORPUS]

VARIANTS = [
    ("oblivious", lambda i, r, n, e: oblivious_chase(
        i, r, max_levels=n, engine=e)),
    ("semi_oblivious", lambda i, r, n, e: semi_oblivious_chase(
        i, r, max_levels=n, engine=e)),
    ("restricted", lambda i, r, n, e: restricted_chase(
        i, r, max_rounds=n, engine=e)),
]
VARIANT_IDS = [v[0] for v in VARIANTS]

ENGINES = [
    ("delta", "delta"),
    ("persistent_w1", EngineConfig("persistent", workers=1)),
    ("persistent_w2", EngineConfig("persistent", workers=2)),
]
ENGINE_IDS = [e[0] for e in ENGINES]


@pytest.mark.parametrize("engine_id,engine", ENGINES, ids=ENGINE_IDS)
@pytest.mark.parametrize("variant_id,run", VARIANTS, ids=VARIANT_IDS)
@pytest.mark.parametrize(
    "name,make_instance,rules,levels", CORPUS, ids=CORPUS_IDS
)
def test_disconnected_bodies_match_naive(
    name, make_instance, rules, levels, variant_id, run, engine_id, engine
):
    reference = run(make_instance(), rules, levels, "naive")
    result = run(make_instance(), rules, levels, engine)
    assert reference.records()  # the workload fires something
    assert_bit_identical(result, reference)


# ----------------------------------------------------------------------
# Exact work gates
# ----------------------------------------------------------------------

#: Matcher candidates of the 6-level chase of ``merge_ladder(2)`` from
#: {⊤}, post-budget probe included: each body component is matched once
#: against the delta and, where a product needs it, once against the
#: instance.
MERGE_LADDER_CANDIDATES = 1_507
#: Head instantiations of the same chase: one per trigger.
MERGE_LADDER_HEADS = 54_289


def _chase_work(rules, levels):
    with default_registry().collect() as scope:
        result = oblivious_chase(Instance(), rules, max_levels=levels)
    delta = scope.delta
    return result, delta["matcher"]["candidates"], delta["instantiation"]["heads"]


def test_merge_ladder_work_is_exact():
    result, candidates, heads = _chase_work(merge_ladder(2).rules, 6)
    assert len(result.instance) == 2251
    assert candidates == MERGE_LADDER_CANDIDATES
    assert heads == MERGE_LADDER_HEADS


def test_merge_rule_order_costs_little():
    # Rule order only changes which rule fires first within a level: each
    # body component is matched the same way whatever rule precedes it.
    rules = list(merge_ladder(2).rules)
    family, family_candidates, family_heads = _chase_work(RuleSet(rules), 5)
    merge_first, merge_candidates, merge_heads = _chase_work(
        RuleSet([rules[-1], *rules[:-1]]), 5
    )
    assert merge_first.instance == family.instance
    assert merge_heads == family_heads
    assert merge_candidates <= 3 * family_candidates
