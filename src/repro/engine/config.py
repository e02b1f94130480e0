"""Engine configuration and the engine registry.

The chase variants and the Datalog closure accept an ``engine`` argument
that is either a registered engine *name* or an :class:`EngineConfig`
instance.  The registry replaces the ad-hoc ``engine="delta"|"naive"``
string checks that used to live in ``chase/oblivious.py``: every entry
point resolves its argument through :func:`resolve_engine`, which raises a
:class:`~repro.errors.ChaseError` naming the valid engines on a typo.

Built-in engines
----------------
``delta``
    Inline semi-naive evaluation (the default everywhere): each round
    only matches rule bodies pivoted on the previous round's delta.  The
    chase variants stream canonical trigger order; the Datalog closure
    derives a round's head atoms in one batched pass, with no trigger
    objects.
``naive``
    Full re-match reference implementation; kept as the ground truth the
    other engines are tested against.
``persistent``
    The sharded round scheduler (:mod:`repro.engine.scheduler`) on
    persistent delta-fed process workers (:mod:`repro.engine.workers`):
    each worker holds a long-lived id-native replica of the instance,
    seeded once at pool start and synced with only the per-round delta,
    and enumeration, firing and satisfaction probes are sharded across
    the pool, one hash shard per worker.  At ``workers=1`` the scheduler
    runs its single shard inline, with no processes.  Results are bit-identical to ``delta`` for every
    worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ChaseError

#: Default pool size of the ``persistent`` engine.  Chosen for
#: laptop-scale corpora; pick another via an explicit
#: :class:`EngineConfig` (or :meth:`EngineConfig.with_workers`).
DEFAULT_PERSISTENT_WORKERS = 4


#: The execution modes the chase variants know how to dispatch on.
MODES = ("delta", "naive", "persistent")


@dataclass(frozen=True)
class EngineConfig:
    """Resolved configuration of a chase execution engine.

    Parameters
    ----------
    name:
        The registry name the configuration is selected by.  For the
        built-ins this coincides with the mode; registered presets may
        use any name (e.g. ``"turbo"``).
    mode:
        The execution mode the chase variants dispatch on — one of
        :data:`MODES`.  Defaults to ``name``; a preset under a custom
        name must set it explicitly.  Validated at construction, so a
        typo raises instead of silently running the wrong engine.
    workers:
        Worker-pool size of the ``persistent`` engine, which is also the
        number of hash shards each round's delta is split into (shard
        *i* goes to worker *i*).  ``1`` runs the enumeration and merge
        inline, with no processes (useful for debugging and for the
        determinism tests); ignored by the inline engines.
    description:
        One-line human description, shown by ``repro chase
        --list-engines`` and usable by third-party presets.  Presentation
        only — it never affects dispatch.
    """

    name: str
    mode: str = ""
    workers: int = 1
    description: str = ""

    def __post_init__(self):
        if not self.mode:
            object.__setattr__(self, "mode", self.name)
        if self.mode not in MODES:
            valid = ", ".join(MODES)
            raise ChaseError(
                f"engine {self.name!r} has unknown mode {self.mode!r}; "
                f"valid modes: {valid}"
            )
        if self.workers < 1:
            raise ChaseError(
                f"engine {self.name!r} needs at least 1 worker, "
                f"got {self.workers}"
            )

    @property
    def is_naive(self) -> bool:
        """True for the full re-match reference mode."""
        return self.mode == "naive"

    @property
    def is_persistent(self) -> bool:
        """True when rounds go through the sharded scheduler and its
        persistent worker pool."""
        return self.mode == "persistent"

    @property
    def persistent_workers(self) -> bool:
        """Read-only alias of :attr:`is_persistent` (provenance readers)."""
        return self.is_persistent

    def with_workers(self, workers: int) -> "EngineConfig":
        """Return a copy with a different worker-pool size."""
        return replace(self, workers=workers)


#: The registry: engine name -> default configuration.  Insertion order is
#: the order names are listed in error messages and ``--engine`` help.
_REGISTRY: dict[str, EngineConfig] = {
    "delta": EngineConfig(
        "delta",
        description=(
            "inline semi-naive evaluation pivoted on the previous "
            "round's delta (the default)"
        ),
    ),
    "naive": EngineConfig(
        "naive",
        description=(
            "full re-match reference engine; the ground truth the others "
            "are tested against"
        ),
    ),
    "persistent": EngineConfig(
        "persistent",
        workers=DEFAULT_PERSISTENT_WORKERS,
        description=(
            "persistent delta-fed process workers with sharded firing; "
            "replicas seeded once, rounds ship only the delta"
        ),
    ),
}


def available_engines() -> tuple[str, ...]:
    """The registered engine names, in registration order."""
    return tuple(_REGISTRY)


def registered_engines() -> tuple[EngineConfig, ...]:
    """The registered default configurations, in registration order.

    The CLI generates ``--engine`` help and ``--list-engines`` output
    from this, so registered presets show up automatically.
    """
    return tuple(_REGISTRY.values())


def register_engine(config: EngineConfig, *, replace_existing: bool = False) -> None:
    """Register ``config`` as the default for its name.

    Third parties can add tuned presets — e.g.
    ``EngineConfig("turbo", mode="persistent", workers=8)`` — and
    select them by name everywhere an ``engine`` argument is accepted;
    the preset's ``mode`` decides how the chase variants dispatch it.
    """
    if config.name in _REGISTRY and not replace_existing:
        raise ChaseError(
            f"engine {config.name!r} is already registered; pass "
            f"replace_existing=True to override it"
        )
    _REGISTRY[config.name] = config


def resolve_engine(engine: str | EngineConfig) -> EngineConfig:
    """Resolve an engine name or configuration to an :class:`EngineConfig`.

    Raises :class:`~repro.errors.ChaseError` with the list of valid names
    when ``engine`` is an unknown string.  Explicit :class:`EngineConfig`
    instances pass through untouched (mode and pool fields were validated
    on construction), so callers can tune the pool size per run.
    """
    if isinstance(engine, EngineConfig):
        return engine
    config = _REGISTRY.get(engine)
    if config is None:
        valid = ", ".join(available_engines())
        raise ChaseError(
            f"unknown chase engine {engine!r}; valid engines: {valid}"
        )
    return config
