"""Experiment configuration: plain key-value documents with a JSON mirror.

The text grammar is one ``key = value`` assignment per line, ``#`` starts
a comment.  Scaling rules take two tokens: ``T_rule = scaled 0.16`` means
T = 0.16/N, ``m_rule = scaled 16`` means m = 16*N, ``K_rule = per_m 4``
means K = 4*m.  Plain ``T = 0.05`` / ``m = 16`` / ``K = 64`` fix the value
for every N.  A ``.json`` document with the same keys is accepted
interchangeably.  Either sets each key at most once, ``T``, ``m`` and ``K``
counting as ``T_rule``, ``m_rule`` and ``K_rule``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

from .errors import ConfigError
from .estimator import MAX_STEPS, checked_K, require_sample_size
from .flow import g12, require_budget, require_series_size
from .surface import (AUTO, DEFAULT_PHASE_H, DEFAULT_PHASE_V,
                      DEFAULT_RAMP_FRACTION, Scenario, build_scenario,
                      document_lines)
from .words import Word

DEFAULT_SEED = 20260809

# A value of this type is the rest of its line, spaces included.
Text = str


def _positive_int(value: float) -> int | None:
    """``value`` as an int if it is within 1e-12 of an integer >= 1; an int
    is taken as it is, however large."""
    if isinstance(value, int):
        return value if value >= 1 else None
    i = round(value) if math.isfinite(value) else 0
    return i if i >= 1 and abs(value - i) <= 1e-12 else None


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment's settings.  Each field is one configuration key, its
    annotation picks the parser, and field order is the ``show-config``
    order."""

    pattern: str = "ab"
    N_list: tuple[int, ...] = (1, 2, 4, 8)
    T_rule: tuple[str, float] = ("scaled", 0.16)
    m_rule: tuple[str, float] = ("scaled", 16)
    K_rule: tuple[str, float] = ("per_m", 4)
    hole_halfwidth: float = 0.02
    samples_per_strip: int = 20000
    seed: int = DEFAULT_SEED
    phase_H: float = DEFAULT_PHASE_H
    phase_V: float = DEFAULT_PHASE_V
    phase_D: float | str = AUTO
    ramp_fraction: float = DEFAULT_RAMP_FRACTION
    time_samples: int = 8
    space_samples: int = 400
    output: Text = "sweep.csv"
    # not a key: the grid of the acceptance suite's full-enumeration check
    grid_oracle_size: ClassVar[int] = 400

    def __post_init__(self):
        # Only what no library function checks: build() maps the range
        # checks of build_scenario and HoledTorus to ConfigError.
        try:
            pattern = Word.from_text(self.pattern)
        except ValueError as exc:
            raise ConfigError(f"bad pattern {self.pattern!r}: {exc}") from exc
        if not pattern:
            raise ConfigError(
                f"pattern {self.pattern!r} reduces to the empty word")
        for rule, allowed in (("T_rule", ("scaled", "fixed")),
                              ("m_rule", ("scaled", "fixed")),
                              ("K_rule", ("per_m", "fixed"))):
            kind = getattr(self, rule)[0]
            if kind not in allowed:
                raise ConfigError(f"{rule} kind must be one of {allowed}")
        if any(n < 1 for n in self.N_list):
            raise ConfigError(f"every N must be >= 1, got {self.N_list}")
        for key in ("samples_per_strip", "time_samples", "space_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")

    def T_for(self, N: int) -> float:
        kind, value = self.T_rule
        return value / N if kind == "scaled" else value

    def m_for(self, N: int) -> int:
        kind, value = self.m_rule
        m = value * N if kind == "scaled" else value
        mi = _positive_int(m)
        if mi is None:
            raise ConfigError(f"m rule yields non-integer {m} for N={N}")
        return mi

    def K_for(self, m: int) -> int:
        kind, value = self.K_rule
        k = value * m if kind == "per_m" else value
        ki = _positive_int(k)
        if ki is None or ki % m != 0:
            raise ConfigError(
                f"K={g12(k)} must be a positive multiple of m={g12(m)}")
        return ki

    def build(self, N: int) -> Scenario:
        """The scenario at N, through every check that ``run`` and ``sweep``
        make before they sample."""
        try:
            m = self.m_for(N)
            # K >= m: a long period is refused by name before K is formed
            require_budget("m", m, m, MAX_STEPS, "steps")
            scenario = build_scenario(
                N, self.T_for(N), m, self.hole_halfwidth,
                phases=(self.phase_H, self.phase_V, self.phase_D),
                ramp_fraction=self.ramp_fraction)
            checked_K(scenario, self.K_for(scenario.m))
            require_sample_size(self.samples_per_strip)
            require_series_size(self.space_samples, self.time_samples)
        # OverflowError: a rule value too large for a float (T_rule =
        # scaled 1e400 written as an integer)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"N={g12(N)}: {exc}") from exc
        return scenario


def _parse_rule(key: str, tokens: list[str]) -> tuple[str, float]:
    if len(tokens) not in (1, 2):
        raise ConfigError(f"{key} expects 'kind value' or a plain number")
    *kind, value = tokens
    # an integral value stays an int: show-config prints it as written
    return (kind[0] if kind else "fixed",
            int(value) if value.lstrip("+-").isdigit() else float(value))


def _single(key: str, tokens: list[str]) -> str:
    if len(tokens) != 1:
        raise ConfigError(
            f"{key!r} takes one value, got {len(tokens)}: {tokens!r}")
    return tokens[0]


def _phase(key: str, tokens: list[str]) -> float | str:
    value = _single(key, tokens)
    return AUTO if value == AUTO else float(value)


# the parser of each field annotation, by its text (annotations are strings)
_PARSERS = {
    "str": _single,
    "Text": lambda key, tokens: " ".join(tokens),
    "int": lambda key, tokens: int(_single(key, tokens)),
    "float": lambda key, tokens: float(_single(key, tokens)),
    "float | str": _phase,
    "tuple[int, ...]": lambda key, tokens: tuple(int(t) for t in tokens),
    "tuple[str, float]": _parse_rule,
}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}
_ALIASES = {"T": "T_rule", "m": "m_rule", "K": "K_rule"}


def _assign(values: dict, key: str, tokens: list[str]):
    name = _ALIASES.get(key, key)
    if name not in _KEY_PARSERS:
        raise ConfigError(f"unknown configuration key {key!r}")
    if name in values:
        raise ConfigError(f"repeated configuration key {key!r} ({name})")
    try:
        values[name] = _KEY_PARSERS[name](name, tokens)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def config_from_text(text: str) -> ExperimentConfig:
    values: dict = {}
    for raw, key, value in document_lines(text):
        if key is None:
            raise ConfigError(f"unparseable config line {raw!r}")
        tokens = value.split()
        if not tokens:
            raise ConfigError(f"empty value for {key!r}")
        _assign(values, key, tokens)
    return ExperimentConfig(**values)


def _unique_members(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated member is refused."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"repeated configuration key {key!r}")
        data[key] = value
    return data


def config_from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text, object_pairs_hook=_unique_members)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("JSON config must be an object")
    values: dict = {}
    for key, value in data.items():
        if isinstance(value, list):
            tokens = [str(v) for v in value]
        else:
            tokens = str(value).split()
        _assign(values, key, tokens)
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        return config_from_json(text)
    return config_from_text(text)


def config_to_text(config: ExperimentConfig) -> str:
    lines = ["# stripflow experiment config"]
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = " ".join(map(str, value))
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
