"""Unit tests for finite-model tools: is_model, folding, countermodels."""

from repro.chase.oblivious import oblivious_chase
from repro.corpus.examples import example_1
from repro.finite.models import (
    datalog_saturate,
    find_finite_countermodel,
    finite_entails,
    fold_chase,
    is_model,
    violations,
)
from repro.queries.entailment import entails_cq
from repro.rules.parser import parse_instance, parse_query, parse_rules


class TestIsModel:
    def test_closed_instance_is_model(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        # A 2-cycle: every vertex has a successor.
        assert is_model(parse_instance("E(a,b), E(b,a)"), rules)

    def test_open_instance_is_not_model(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        assert not is_model(parse_instance("E(a,b)"), rules)

    def test_violations_report_triggers(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        bad = violations(parse_instance("E(a,b)"), rules)
        assert len(bad) == 1

    def test_datalog_satisfaction(self):
        rules = parse_rules("E(x,y), E(y,z) -> E(x,z)")
        assert not is_model(parse_instance("E(a,b), E(b,c)"), rules)
        assert is_model(
            parse_instance("E(a,b), E(b,c), E(a,c)"), rules
        )

    def test_loop_is_model_of_example1(self):
        entry = example_1()
        assert is_model(parse_instance("E(a,a)"), entry.rules)


class TestFoldChase:
    def test_folded_prefix_is_finite_and_smaller(self):
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        result = oblivious_chase(
            parse_instance("E(a,b)"), rules, max_levels=4
        )
        folded = fold_chase(result.instance, result.timestamp, fold_level=3)
        assert len(folded.active_domain()) < len(
            result.instance.active_domain()
        )

    def test_folding_example1_creates_model_after_saturation(self):
        """The classical construction: fold the tail, close transitively —
        a finite model of Example 1 appears, and it has a loop."""
        entry = example_1()
        result = oblivious_chase(entry.instance, entry.rules, max_levels=3)
        folded = fold_chase(result.instance, result.timestamp, fold_level=2)
        saturated = datalog_saturate(folded, entry.rules, max_rounds=10)
        assert is_model(saturated, entry.rules.datalog_rules())
        assert entails_cq(saturated, parse_query("E(x,x)"))


class TestCountermodels:
    def test_example1_loop_has_no_finite_countermodel(self):
        """Finite semantics of Example 1: every finite model loops."""
        entry = example_1()
        assert finite_entails(
            entry.instance, entry.rules, parse_query("E(x,x)"),
            max_domain=1,
        )

    def test_countermodel_found_when_query_not_finite_entailed(self):
        # Successor alone: the 2-cycle is a loop-free finite model.
        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        counter = find_finite_countermodel(
            parse_instance("E(a,b)"), rules, parse_query("E(x,x)"),
            max_domain=1,
        )
        assert counter is not None
        assert is_model(counter, rules)
        assert not entails_cq(counter, parse_query("E(x,x)"))

    def test_finite_and_unrestricted_agree_for_fc_fragment(self):
        """Linear rules are finitely controllable [27]: the finite and
        chase answers agree on the loop query."""
        from repro.serving import answer

        rules = parse_rules("E(x,y) -> exists z. E(y,z)")
        instance = parse_instance("E(a,b)")
        query = parse_query("E(x,x)")
        unrestricted = answer(
            instance, rules, query, strategy="chase", max_levels=4
        ).entailed
        finite = not bool(
            find_finite_countermodel(instance, rules, query, max_domain=1)
        )
        assert unrestricted == finite == False  # noqa: E712

    def test_example1_witnesses_non_fc(self):
        """Example 1's divergence: chase says no loop, finite says loop —
        so the (non-bdd) rule set is not finitely controllable."""
        from repro.serving import answer

        entry = example_1()
        query = parse_query("E(x,x)")
        unrestricted = answer(
            entry.instance, entry.rules, query, strategy="chase",
            max_levels=4,
        ).entailed
        finite = finite_entails(
            entry.instance, entry.rules, query, max_domain=1
        )
        assert not unrestricted and finite
