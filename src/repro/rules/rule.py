"""Existential rules: ``∀x̄,ȳ B(x̄,ȳ) → ∃z̄ H(ȳ,z̄)`` (Section 2.1).

A :class:`Rule` stores its body and head as atom frozensets and derives the
frontier (variables shared between body and head) and the existential
variables (head variables outside the frontier).  Rules are immutable and
hashable so rule sets can be plain sets.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.logic.atoms import Atom, build_atom
from repro.logic.predicates import Predicate
from repro.logic.substitutions import Substitution
from repro.logic.terms import FreshSupply, Term, Variable


class InstantiationStats:
    """Counter of head instantiations performed *in this process*.

    Module-global (like ``MATCHER_STATS`` in the homomorphism matcher),
    registered as the ``instantiation`` group of
    :func:`repro.obs.default_registry`.
    :meth:`Rule.instantiate_head` bumps it, so the engine tests can assert
    that a claim gate which already instantiated a trigger's head (parking
    it on ``Trigger._ground_output``) is not paying for a second
    instantiation on the firing path.  Worker processes keep their own
    copy; the parent-side count is the one the equivalence tests pin.
    """

    __slots__ = ("heads",)

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.heads = 0

    def snapshot(self) -> dict[str, int]:
        return {"heads": self.heads}


#: Global head-instantiation counter; reset before a measured run.
INSTANTIATION_STATS = InstantiationStats()


def tuple_getter(keys: Sequence) -> Callable[[object], tuple]:
    """An :func:`operator.itemgetter` over ``keys`` that always returns a
    tuple — also for zero or one key, where ``itemgetter`` would raise or
    return the bare item."""
    if not keys:
        return lambda _source: ()
    if len(keys) == 1:
        (key,) = keys
        return lambda source: (source[key],)
    return itemgetter(*keys)


class BodyComponent(NamedTuple):
    """One connected component of a rule body.

    Body atoms are connected when they share a non-constant term; a
    homomorphism of the body is exactly a choice of one homomorphism per
    component, so delta-driven enumeration can match each component on
    its own and build the body's images as products (see
    :mod:`repro.engine.core`).  A ground or nullary atom (``top``,
    ``P(a)``) is a component without terms whose only image is ``()``.
    """

    #: The component's atoms, sorted.
    atoms: tuple[Atom, ...]
    #: The terms the matcher binds: the component's variables in the
    #: rule's canonical order, then any nulls of the body, sorted.
    terms: tuple[Term, ...]
    #: Maps a matcher binding to the component's image along ``terms``.
    image_of: Callable[[dict], tuple]


class Rule:
    """An existential rule with non-empty body and head."""

    __slots__ = (
        "body",
        "head",
        "label",
        "_hash",
        "_body_vars",
        "_body_var_order",
        "_frontier_order",
        "_existential_order",
        "_sorted_body",
        "_components",
        "_head_template",
        "_frontier_of",
    )

    def __init__(
        self,
        body: Iterable[Atom],
        head: Iterable[Atom],
        label: str = "",
    ):
        body_atoms = frozenset(body)
        head_atoms = frozenset(head)
        if not body_atoms:
            raise ValueError("a rule must have a non-empty body")
        if not head_atoms:
            raise ValueError("a rule must have a non-empty head")
        self.body = body_atoms
        self.head = head_atoms
        self.label = label
        self._hash = hash((body_atoms, head_atoms))
        # Lazily-computed caches; rules are immutable so these never
        # invalidate.  The chase asks for them once per *trigger*, which
        # makes recomputation the dominant cost on trigger-heavy levels.
        self._body_vars: frozenset[Variable] | None = None
        self._body_var_order: tuple[Variable, ...] | None = None
        self._frontier_order: tuple[Variable, ...] | None = None
        self._existential_order: tuple[Variable, ...] | None = None
        self._sorted_body: tuple[Atom, ...] | None = None
        self._components: tuple | None = None
        self._head_template: tuple | None = None
        self._frontier_of: Callable[[tuple], tuple] | None = None

    # ------------------------------------------------------------------
    # Value semantics (label is presentation-only)
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rule)
            and self.body == other.body
            and self.head == other.head
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the cached hash (derived from the
        # atoms' seed-salted hashes) is recomputed with the unpickling
        # interpreter's seed (see Term.__reduce__).
        return (Rule, (self.body, self.head, self.label))

    def __lt__(self, other: "Rule") -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (
            tuple(sorted(a.sort_key() for a in self.body)),
            tuple(sorted(a.sort_key() for a in self.head)),
        )

    def __repr__(self) -> str:
        return f"Rule({self!s})"

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in sorted(self.body))
        head = ", ".join(str(a) for a in sorted(self.head))
        existential = sorted(self.existential_variables(), key=lambda v: v.name)
        if existential:
            names = ", ".join(v.name for v in existential)
            return f"{body} -> exists {names}. {head}"
        return f"{body} -> {head}"

    # ------------------------------------------------------------------
    # Derived variable sets
    # ------------------------------------------------------------------

    def body_variables(self) -> frozenset[Variable]:
        """All variables of the body (``x̄ ∪ ȳ``), cached."""
        cached = self._body_vars
        if cached is None:
            cached = frozenset(
                v for atom in self.body for v in atom.variables()
            )
            self._body_vars = cached
        return cached

    def body_variable_order(self) -> tuple[Variable, ...]:
        """The body variables in the rule's canonical (sorted) order.

        Triggers derive their identity key from this tuple, so the sort
        happens once per rule instead of once per trigger.
        """
        cached = self._body_var_order
        if cached is None:
            cached = tuple(sorted(self.body_variables()))
            self._body_var_order = cached
        return cached

    def frontier_order(self) -> tuple[Variable, ...]:
        """The frontier variables in canonical (sorted) order, cached."""
        cached = self._frontier_order
        if cached is None:
            cached = tuple(sorted(self.frontier()))
            self._frontier_order = cached
        return cached

    def existential_order(self) -> tuple[Variable, ...]:
        """The existential variables in canonical (sorted) order, cached."""
        cached = self._existential_order
        if cached is None:
            cached = tuple(sorted(self.existential_variables()))
            self._existential_order = cached
        return cached

    def sorted_body(self) -> tuple[Atom, ...]:
        """The body atoms in deterministic order, cached.

        Delta-driven trigger enumeration iterates this as its pivot
        sequence.
        """
        cached = self._sorted_body
        if cached is None:
            cached = tuple(sorted(self.body))
            self._sorted_body = cached
        return cached

    def body_components(
        self,
    ) -> tuple[tuple[BodyComponent, ...], Callable[[tuple], tuple] | None]:
        """The connected components of the body and their image assembler.

        Components come in the order of their first atom in
        :meth:`sorted_body`.  The assembler maps the concatenation of one
        image per component (in component order) to the body image along
        :meth:`body_variable_order`; it is ``None`` when the concatenation
        already is that image (the case for a connected body without
        nulls).  Cached: rules are immutable.
        """
        cached = self._components
        if cached is None:
            cached = self._factorise_body()
            self._components = cached
        return cached

    def _factorise_body(self):
        atoms = self.sorted_body()
        # Union-find over atom indexes; a root is its component's first atom.
        parent = list(range(len(atoms)))

        def root(i: int) -> int:
            while parent[i] != i:
                i = parent[i]
            return i

        owner: dict[Term, int] = {}
        for i, atom in enumerate(atoms):
            for term in atom.args:
                if term.is_constant:
                    continue
                a, b = root(i), root(owner.setdefault(term, i))
                if a != b:
                    parent[max(a, b)] = min(a, b)
        groups: dict[int, list[Atom]] = {}
        for i, atom in enumerate(atoms):
            groups.setdefault(root(i), []).append(atom)
        order = self.body_variable_order()
        components = []
        for members in groups.values():
            linked = {t for a in members for t in a.args if not t.is_constant}
            terms = [v for v in order if v in linked]
            terms += sorted(t for t in linked if not t.is_variable)
            components.append(
                BodyComponent(tuple(members), tuple(terms), tuple_getter(terms))
            )
        concatenated = tuple(t for c in components for t in c.terms)
        assemble = None
        if concatenated != order:
            assemble = tuple_getter([concatenated.index(v) for v in order])
        return tuple(components), assemble

    def frontier_of(self, image: tuple) -> tuple:
        """The frontier part of a body image: ``h`` along
        :meth:`frontier_order`, read from ``h`` along
        :meth:`body_variable_order`."""
        get = self._frontier_of
        if get is None:
            order = self.body_variable_order()
            get = tuple_getter([order.index(v) for v in self.frontier_order()])
            self._frontier_of = get
        return get(image)

    def head_variables(self) -> set[Variable]:
        """All variables of the head (``ȳ ∪ z̄``)."""
        return {v for atom in self.head for v in atom.variables()}

    def frontier(self) -> set[Variable]:
        """The frontier ``ȳ``: variables shared between body and head."""
        return self.body_variables() & self.head_variables()

    def existential_variables(self) -> set[Variable]:
        """The existential variables ``z̄``: head-only variables."""
        return self.head_variables() - self.body_variables()

    def variables(self) -> set[Variable]:
        return self.body_variables() | self.head_variables()

    def terms(self) -> set[Term]:
        return {
            t for atom in (self.body | self.head) for t in atom.args
        }

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------

    @property
    def is_datalog(self) -> bool:
        """True when the rule has no existential variables (§2.1)."""
        return not self.existential_variables()

    def predicates(self) -> set[Predicate]:
        return {a.predicate for a in self.body | self.head}

    def body_predicates(self) -> set[Predicate]:
        return {a.predicate for a in self.body}

    def head_predicates(self) -> set[Predicate]:
        return {a.predicate for a in self.head}

    # ------------------------------------------------------------------
    # Head instantiation
    # ------------------------------------------------------------------

    def head_template(self) -> tuple:
        """The head template: per head atom its predicate and a getter
        that reads the atom's arguments off ``image + nulls + constants``
        (body image along :meth:`body_variable_order`, nulls along
        :meth:`existential_order`, then the head's fixed terms)."""
        cached = self._head_template
        if cached is None:
            order = self.body_variable_order()
            existential = self.existential_order()
            slots: dict[Term, int] = {v: i for i, v in enumerate(order)}
            for i, v in enumerate(existential):
                slots[v] = len(order) + i
            constants: list[Term] = []
            atoms = []
            for atom in sorted(self.head):
                positions = []
                for term in atom.args:
                    slot = slots.get(term)
                    if slot is None:
                        # A constant (or a null): nothing moves it.
                        slot = len(slots)
                        slots[term] = slot
                        constants.append(term)
                    positions.append(slot)
                atoms.append((atom.predicate, tuple_getter(positions)))
            cached = (tuple(atoms), tuple(constants))
            self._head_template = cached
        return cached

    def head_atoms(self, image: tuple, nulls: tuple = ()) -> set[Atom]:
        """The head under the body image ``image`` (along
        :meth:`body_variable_order`) and the existential assignment
        ``nulls`` (along :meth:`existential_order`).

        Not counted: satisfaction probes and the Datalog closure's
        derivation read heads through here.  Firing goes through
        :meth:`instantiate_image`.
        """
        atoms, constants = self.head_template()
        values = image + nulls + constants if nulls or constants else image
        return {build_atom(predicate, get(values)) for predicate, get in atoms}

    def instantiate_image(self, image: tuple, nulls: tuple = ()) -> set[Atom]:
        """The output of firing the trigger with body image ``image``.

        The single definition of what firing a trigger produces: the
        sequential :meth:`~repro.chase.trigger.Trigger.output` and the
        batched firing paths call this, and the sharded firing workers
        read the same :meth:`head_template` over term ids
        (:class:`repro.engine.columnar.HeadRows`), so the engines cannot
        drift apart.  Counted in :data:`INSTANTIATION_STATS`, by the
        workers too.
        """
        INSTANTIATION_STATS.heads += 1
        return self.head_atoms(image, nulls)

    def instantiate_head(
        self,
        mapping: Substitution,
        existential_map: "dict | None" = None,
    ) -> set[Atom]:
        """:meth:`instantiate_image` for a body homomorphism given as a
        substitution and an existential-variable-to-null mapping.
        Existential variables the mapping leaves out stay unchanged."""
        apply = mapping.apply_term
        image = tuple(apply(v) for v in self.body_variable_order())
        existential = self.existential_order()
        if existential_map:
            nulls = tuple(existential_map.get(v, v) for v in existential)
        else:
            nulls = existential
        return self.instantiate_image(image, nulls)

    # ------------------------------------------------------------------
    # Renaming
    # ------------------------------------------------------------------

    def rename_fresh(self, supply: FreshSupply) -> tuple["Rule", Substitution]:
        """Return a variant with all variables renamed fresh.

        Also returns the renaming used, so callers (e.g. piece-unifiers)
        can translate back.
        """
        renaming = {
            v: supply.variable() for v in sorted(self.variables())
        }
        sigma = Substitution(renaming)
        renamed = Rule(
            sigma.apply_atoms(self.body),
            sigma.apply_atoms(self.head),
            label=self.label,
        )
        return renamed, sigma

    def apply(self, substitution: Substitution) -> "Rule":
        """Return the rule with the substitution applied to body and head."""
        return Rule(
            substitution.apply_atoms(self.body),
            substitution.apply_atoms(self.head),
            label=self.label,
        )


def rule(body: Iterable[Atom], head: Iterable[Atom], label: str = "") -> Rule:
    """Convenience constructor mirroring :class:`Rule`."""
    return Rule(body, head, label=label)
