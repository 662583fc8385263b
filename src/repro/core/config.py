"""Fuzzer configuration and the named tool presets.

Every fuzzer the paper evaluates shares one campaign loop; what
distinguishes MuFuzz, sFuzz, ConFuzzius, IR-Fuzz, and Smartian — and the
three ablated MuFuzz variants of Fig. 7 — is captured by the strategy knobs
here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

#: sequence construction strategies (§IV-A and baselines' documented behaviour)
SEQ_RANDOM = "random"                  # sFuzz: random ordering
SEQ_DATAFLOW = "dataflow"              # ConFuzzius/Smartian: write-before-read
SEQ_DATAFLOW_REPEAT = "dataflow-repeat"  # MuFuzz: + RAW-driven repetition
SEQ_DATAFLOW_PROLONG = "dataflow-prolong"  # IR-Fuzz: + random prolongation

#: energy strategies (§IV-C and baselines)
ENERGY_UNIFORM = "uniform"   # sFuzz default scheme
ENERGY_DYNAMIC = "dynamic"   # MuFuzz: nested-score + vulnerable-reach weights
ENERGY_REVISIT = "revisit"   # IR-Fuzz: rare-branch revisiting


@dataclass
class FuzzerConfig:
    """All tunables of one fuzzing campaign.

    A campaign stops when *any* configured budget is exhausted; the three
    limits combine into the single :class:`repro.engine.budget.Budget`
    authority every engine stage consults.  ``iterations`` may be ``None``
    for open-ended time- or transaction-budgeted campaigns, but at least
    one of the three limits must be set.

    ``bug_classes`` restricts which oracles the campaign runs (``None`` =
    all nine; an empty tuple = coverage-only, no oracles).  The streaming
    oracle bus derives its event-subscription mask from this, so a
    restricted campaign also skips materializing the trace events only the
    excluded oracles would have consumed.
    """

    name: str = "MuFuzz"
    #: execution (full-sequence) budget; None = unlimited iterations
    iterations: int | None = 150
    #: transaction budget; None = unlimited transactions
    tx_budget: int | None = None
    #: wall-clock budget in seconds; None = unlimited time
    time_budget: float | None = None
    rng_seed: int = 1

    # strategy knobs
    sequence_strategy: str = SEQ_DATAFLOW_REPEAT
    use_mask: bool = True
    use_distance_feedback: bool = True
    energy_strategy: str = ENERGY_DYNAMIC

    #: oracle selection: None = all nine bug classes; otherwise a sorted
    #: tuple of BugClass values ("RE", "IO", ...) — normalized by
    #: __post_init__ so configs round-trip canonically through JSON
    bug_classes: tuple | None = None

    # sequence shape
    max_sequence_length: int = 8
    initial_population: int = 3

    # per-iteration mutation energy
    base_energy: int = 4
    max_energy: int = 16

    # mask computation cost control (probe positions per stream) and the
    # fraction of the campaign budget mask probing may consume in total
    mask_probe_limit: int = 4
    mask_budget_fraction: float = 0.15
    # probability of sending a fallback / unknown-selector transaction,
    # which is how real fuzzers cover the dispatcher's failure edges
    fallback_probability: float = 0.05

    # memoized prefix states the §VI prefix-snapshot tree keeps (the
    # ``state_cache`` perf layer; whether a layer runs is not config — see
    # repro.layers)
    state_cache_capacity: int = 64

    # execution environment
    tx_gas: int = 5_000_000
    max_steps_per_tx: int = 60_000
    deploy_balance: int = 10 ** 19  # 10 ether pre-funded
    attacker_reentry: bool = True

    # Smartian-style fresh-state re-execution per round costs extra "time";
    # modeled as an execution-step multiplier in the coverage curves.
    reexecution_overhead: float = 1.0

    def __post_init__(self) -> None:
        self.bug_classes = normalize_bug_classes(self.bug_classes)

    def variant(self, **overrides) -> "FuzzerConfig":
        """A copy with some knobs replaced (used by the ablation bench)."""
        return replace(self, **overrides)


def config_from_dict(data: dict) -> FuzzerConfig:
    """Rebuild a config from its ``dataclasses.asdict`` form, as result
    records and checkpoints store it.  Fields this version no longer has
    (records written before the per-layer switches moved to
    :mod:`repro.layers` carry three) are dropped."""
    known = {f.name for f in fields(FuzzerConfig)}
    return FuzzerConfig(**{k: v for k, v in data.items() if k in known})


def normalize_bug_classes(value) -> tuple | None:
    """Canonical oracle-selection form: None, or a sorted, deduplicated
    tuple of :class:`~repro.oracles.base.BugClass` *values* (plain strings,
    so configs serialize to JSON unchanged).  Accepts any iterable of
    BugClass members or their string codes; raises ``ValueError`` on an
    unknown code."""
    if value is None:
        return None
    from repro.oracles.base import BugClass
    return tuple(sorted({BugClass(getattr(bc, "value", bc)).value
                         for bc in value}))


def mufuzz_config(**overrides) -> FuzzerConfig:
    """The full MuFuzz system (§IV)."""
    return FuzzerConfig(name="MuFuzz").variant(**overrides)


def sfuzz_config(**overrides) -> FuzzerConfig:
    """sFuzz: random transaction order, AFL-style mutation, branch-distance
    seed selection, uniform energy."""
    return FuzzerConfig(
        name="sFuzz",
        sequence_strategy=SEQ_RANDOM,
        use_mask=False,
        use_distance_feedback=True,
        energy_strategy=ENERGY_UNIFORM,
    ).variant(**overrides)


def confuzzius_config(**overrides) -> FuzzerConfig:
    """ConFuzzius: data-dependency ordering, random input mutation."""
    return FuzzerConfig(
        name="ConFuzzius",
        sequence_strategy=SEQ_DATAFLOW,
        use_mask=False,
        use_distance_feedback=True,
        energy_strategy=ENERGY_UNIFORM,
    ).variant(**overrides)


def irfuzz_config(**overrides) -> FuzzerConfig:
    """IR-Fuzz: invocation ordering + prolongation + branch revisiting."""
    return FuzzerConfig(
        name="IR-Fuzz",
        sequence_strategy=SEQ_DATAFLOW_PROLONG,
        use_mask=False,
        use_distance_feedback=True,
        energy_strategy=ENERGY_REVISIT,
    ).variant(**overrides)


def smartian_config(**overrides) -> FuzzerConfig:
    """Smartian: data-flow ordering, coverage feedback only, and per-round
    fresh-state re-execution (its documented overhead, §VI)."""
    return FuzzerConfig(
        name="Smartian",
        sequence_strategy=SEQ_DATAFLOW,
        use_mask=False,
        use_distance_feedback=False,
        energy_strategy=ENERGY_UNIFORM,
        reexecution_overhead=1.6,
    ).variant(**overrides)


#: preset key → config factory; the shared registry behind ``repro fuzz
#: --fuzzer``, ``repro campaign --fuzzers`` and the orchestrator job model.
PRESET_CONFIGS = {
    "mufuzz": mufuzz_config,
    "sfuzz": sfuzz_config,
    "confuzzius": confuzzius_config,
    "irfuzz": irfuzz_config,
    "smartian": smartian_config,
}


def preset_config(preset: str, **overrides) -> FuzzerConfig:
    """Build a :class:`FuzzerConfig` from a registry key plus overrides."""
    try:
        factory = PRESET_CONFIGS[preset]
    except KeyError:
        raise ValueError(
            f"unknown fuzzer preset {preset!r}; "
            f"known: {', '.join(sorted(PRESET_CONFIGS))}") from None
    return factory(**overrides)
