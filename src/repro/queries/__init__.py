"""CQs, UCQs, entailment (incl. injective), specializations, minimization.

These are the *instance-level* evaluation primitives.  Certain-answer
requests against a rule set (``⟨R, I⟩ ⊨ Q(t̄)``) go through the serving
front door, :func:`repro.serving.answer`, which picks a strategy
(goal-directed chase, complete UCQ rewriting, or their hybrid) and
reports an explicit soundness/completeness verdict.
"""

from repro.queries.cq import ConjunctiveQuery, cq
from repro.queries.freezing import (
    entails_via_canonical_database,
    freeze,
    frozen_answer,
)
from repro.queries.entailment import (
    answer_homomorphisms,
    answers,
    entails_cq,
    entails_ucq,
)
from repro.queries.minimization import (
    cq_core,
    equivalent,
    is_subsumed_by_any,
    minimize_ucq,
    subsumes,
)
from repro.queries.specialization import (
    cq_specializations,
    injective_closure,
    is_injectively_closed,
)
from repro.queries.ucq import UCQ, UnionOfConjunctiveQueries, ucq

__all__ = [
    "ConjunctiveQuery",
    "UCQ",
    "UnionOfConjunctiveQueries",
    "answer_homomorphisms",
    "answers",
    "cq",
    "cq_core",
    "cq_specializations",
    "entails_cq",
    "entails_ucq",
    "entails_via_canonical_database",
    "equivalent",
    "freeze",
    "frozen_answer",
    "injective_closure",
    "is_injectively_closed",
    "is_subsumed_by_any",
    "minimize_ucq",
    "subsumes",
    "ucq",
]
