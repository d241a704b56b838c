"""User-facing configuration: the launch argument, spec files and knobs.

Paper §V-E: users drive DisTA entirely from the launch command —
``-javaagent:DisTA.jar=taintSources=<file>,taintSinks=<file>`` — where the
two files list taint source and sink points as Java method descriptors,
one per line (``#`` comments allowed).  Every other ``key=value`` pair of
that argument sets one row of :class:`DisTAConfig`, the single object
every layer (cluster, agent, workloads) receives.  This module parses
that surface and applies the spec files to a cluster.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional

from repro.core.taintmap import DEFAULT_DEADLINE_S
from repro.errors import ConfigError

#: Accepted spellings for on/off launch extras.
_SWITCH_VALUES = {
    "on": True,
    "true": True,
    "1": True,
    "yes": True,
    "off": False,
    "false": False,
    "0": False,
    "no": False,
}


def parse_switch(value: str) -> bool:
    """Parse an on/off value."""
    try:
        return _SWITCH_VALUES[value.strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, got {value!r}") from None


def _parse_granularity(value: str) -> bool:
    """``byte`` (the paper's design) → True; ``message`` → False."""
    try:
        return {"byte": True, "message": False}[value.strip().lower()]
    except KeyError:
        raise ValueError(f"expected byte/message, got {value!r}") from None


def _parse_wrapper_types(value: str) -> frozenset:
    """``1+2+3`` → ``frozenset({1, 2, 3})`` (``+`` because extras split
    on commas)."""
    return frozenset(int(part) for part in value.split("+"))


def _from_env(env: str, parse, default):
    text = os.environ.get(env)
    if not text:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad {env}={text!r}: {exc}") from None


def _row(extra: str, parse, default, env: Optional[str] = None):
    """One row of the :class:`DisTAConfig` table: the field's launch
    extra, environment variable (if any), parser and default.  A set
    environment variable replaces the default, so a value passed
    explicitly — ``None`` included — always wins over it."""
    metadata = {"extra": extra, "env": env, "parse": parse}
    if env is None:
        return field(default=default, metadata=metadata)
    return field(
        default_factory=partial(_from_env, env, parse, default), metadata=metadata
    )


@dataclass(frozen=True)
class DisTAConfig:
    """Every DisTA knob, one table row per field (see ``_row``).

    Build it from keyword arguments, or from a launch argument's extras
    with :meth:`from_extras`; either way the environment feeds only the
    defaults, and every value is validated once, here, at construction.
    """

    #: Fig. 9 step ②'s GID/taint cache.  Off re-registers every taint
    #: with the Taint Map (ablation only).
    cache_enabled: bool = _row("gidCache", parse_switch, True)
    #: ``message`` (False) coarsens tracking to one taint per buffer, the
    #: over-tainting byte granularity avoids (ablation, §II-D).
    byte_granularity: bool = _row("granularity", _parse_granularity, True)
    #: Wrapper types instrumented (Table I).  A subset models
    #: partial-coverage tools such as FlowDist (ablation, §II-D).
    wrapper_types: frozenset = _row(
        "wrapperTypes", _parse_wrapper_types, frozenset({1, 2, 3})
    )
    #: Per-request Taint Map deadline in seconds; ``None`` or a value
    #: ``<= 0`` disables it.
    request_deadline_s: Optional[float] = _row(
        "taintMapDeadlineS", float, DEFAULT_DEADLINE_S, env="DISTA_TAINTMAP_DEADLINE_S"
    )
    #: Flow sampling: track every k-th flow admitted at source
    #: registration; the rest reach sinks untainted.
    sample_every: int = _row("taintSampleEvery", int, 1)
    #: Fraction of source firings that taint, gated deterministically
    #: (the tainted-fraction telemetry tests drive it from 0 to 1).
    source_fraction: float = _row("taintSourceFraction", float, 1.0)
    #: Flow lineage: one cluster-wide ``LineageStore`` records sources,
    #: tainted crossings and sinks as flow trees.
    lineage: bool = _row("lineage", parse_switch, False)
    #: The Taint Map keeps a WAL plus snapshots in the in-sim filesystem,
    #: so a restarted server resumes its GID sequence instead of
    #: renumbering.
    taint_map_durable: bool = _row("taintMapDurable", parse_switch, False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "wrapper_types", frozenset(self.wrapper_types))
        checks = (
            (
                not self.wrapper_types or not self.wrapper_types <= {1, 2, 3},
                f"wrapper_types must be a non-empty subset of {{1, 2, 3}}, "
                f"got {sorted(self.wrapper_types)}",
            ),
            (self.sample_every < 1, f"sample_every must be >= 1, got {self.sample_every}"),
            (
                not 0.0 <= self.source_fraction <= 1.0,
                f"source_fraction {self.source_fraction} outside [0, 1]",
            ),
        )
        for failed, message in checks:
            if failed:
                raise ConfigError(message)

    @classmethod
    def from_extras(cls, extras: dict) -> "DisTAConfig":
        """The config a launch argument's extras spell (every pair but
        ``taintSources``/``taintSinks``); rows they leave
        unset keep their defaults.  An unknown key is an error, so a
        typo never silently changes behaviour."""
        rows = {row.metadata["extra"]: row for row in fields(cls)}
        unknown = sorted(set(extras) - set(rows))
        if unknown:
            raise ConfigError(
                f"unknown launch extra(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(rows))}"
            )
        values = {}
        for key, text in extras.items():
            row = rows[key]
            try:
                values[row.name] = row.metadata["parse"](text)
            except ValueError as exc:
                raise ConfigError(f"bad launch extra {key}={text!r}: {exc}") from None
        return cls(**values)


@dataclass
class TaintSpec:
    """Parsed source/sink descriptor lists."""

    sources: list[str] = field(default_factory=list)
    sinks: list[str] = field(default_factory=list)

    @staticmethod
    def parse_spec_text(text: str) -> list[str]:
        """One method descriptor per line; blanks and ``#`` comments skipped."""
        out = []
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
        return out

    @classmethod
    def from_texts(cls, sources_text: str = "", sinks_text: str = "") -> "TaintSpec":
        return cls(cls.parse_spec_text(sources_text), cls.parse_spec_text(sinks_text))

    def apply(self, cluster) -> None:
        cluster.configure_sources(self.sources)
        cluster.configure_sinks(self.sinks)


@dataclass
class AgentOptions:
    """Options from the ``-javaagent:DisTA.jar=...`` argument string."""

    taint_sources: str = ""
    taint_sinks: str = ""
    extras: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, argument: str) -> "AgentOptions":
        """Parse ``key=value`` pairs separated by commas."""
        options = cls()
        if not argument:
            return options
        for pair in argument.split(","):
            if not pair:
                continue
            if "=" not in pair:
                raise ValueError(f"malformed agent option {pair!r} (expected key=value)")
            key, value = pair.split("=", 1)
            if key == "taintSources":
                options.taint_sources = value
            elif key == "taintSinks":
                options.taint_sinks = value
            else:
                options.extras[key] = value
        return options
