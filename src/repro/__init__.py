"""repro — an executable formalization of
*No Cliques Allowed: The Next Step Towards BDD/FC Conjecture* (PODS 2025).

The library implements existential rules, the oblivious chase with
timestamps and provenance, piece-unifier UCQ rewriting with bdd
certificates, the four rule-set surgeries of Section 4 (instance encoding,
reification, streamlining, body rewriting) composing into the regal
pipeline, and the Section 5 tournament/valley-query machinery behind the
paper's main result:

    For every bdd rule set R and instance I:
        Ch(I, R) ⊨ Tournaments_E  ⇒  Ch(I, R) ⊨ Loop_E.      (Property p)

Quickstart::

    from repro import parse_rules, parse_instance, check_property_p

    rules = parse_rules(\"\"\"
        E(x,y) -> exists z. E(y,z)
        E(x,xp), E(y,yp) -> E(x,yp)
    \"\"\")
    report = check_property_p(rules, parse_instance("E(a,b)"), max_levels=4)
    assert report.loop_entailed  # tournaments grow, so the loop appears

See ``src/repro/engine/README.md`` for the execution engines (registry,
runner, persistent workers, telemetry), ``src/repro/serving/README.md``
for the ``answer()`` front door, ``benchmarks/`` for the
experiment-by-experiment reproduction of the paper's claims (result
tables in ``benchmarks/results/``) and ``ROADMAP.md`` for the open items.
"""

from repro.chase import (
    ChaseResult,
    chase,
    chase_from_top,
    oblivious_chase,
    restricted_chase,
)
from repro.core import (
    PropertyPReport,
    check_property_p,
    chromatic_number,
    entails_loop,
    egraph,
    girth,
    is_valley_query,
    max_tournament_size,
    paper_bound,
    ramsey_upper_bound,
    witness_set,
)
from repro.logic import (
    Atom,
    Constant,
    FreshSupply,
    Instance,
    Predicate,
    Signature,
    Substitution,
    Variable,
    atom,
    edge,
    homomorphically_equivalent,
)
from repro.queries import (
    UCQ,
    ConjunctiveQuery,
    entails_cq,
    entails_ucq,
    injective_closure,
    minimize_ucq,
)
from repro.rewriting import (
    BddCertificate,
    rewrite,
    ucq_rewritability_certificate,
)
from repro.rules import (
    Rule,
    RuleSet,
    parse_instance,
    parse_query,
    parse_rule,
    parse_rules,
)
from repro.serving import AnswerResult, answer
from repro.surgery import (
    body_rewrite,
    encode_instance,
    regal_pipeline,
    regality_report,
    reify_rules,
    streamline,
)

__version__ = "1.0.0"

__all__ = [
    "AnswerResult",
    "Atom",
    "BddCertificate",
    "ChaseResult",
    "ConjunctiveQuery",
    "Constant",
    "FreshSupply",
    "Instance",
    "Predicate",
    "PropertyPReport",
    "Rule",
    "RuleSet",
    "Signature",
    "Substitution",
    "UCQ",
    "Variable",
    "answer",
    "atom",
    "body_rewrite",
    "chase",
    "chase_from_top",
    "check_property_p",
    "chromatic_number",
    "edge",
    "egraph",
    "encode_instance",
    "entails_cq",
    "entails_loop",
    "entails_ucq",
    "girth",
    "homomorphically_equivalent",
    "injective_closure",
    "is_valley_query",
    "max_tournament_size",
    "minimize_ucq",
    "oblivious_chase",
    "paper_bound",
    "parse_instance",
    "parse_query",
    "parse_rule",
    "parse_rules",
    "ramsey_upper_bound",
    "regal_pipeline",
    "regality_report",
    "reify_rules",
    "restricted_chase",
    "rewrite",
    "streamline",
    "ucq_rewritability_certificate",
    "witness_set",
]
