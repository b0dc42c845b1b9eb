"""Experiment configuration: plain key-value documents with a JSON mirror.

The text grammar is one ``key = value`` assignment per line, ``#`` starts
a comment.  Scaling rules take two tokens: ``T_rule = scaled 0.16`` means
T = 0.16/N, ``m_rule = scaled 16`` means m = 16*N, ``K_rule = per_m 4``
means K = 4*m.  Plain ``T = 0.05`` / ``m = 16`` / ``K = 64`` fix the value
for every N.  A ``.json`` document with the same keys is accepted
interchangeably.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .surface import (AUTO, DEFAULT_PHASE_H, DEFAULT_PHASE_V,
                      DEFAULT_RAMP_FRACTION, Scenario, build_scenario,
                      document_lines)
from .words import Word

DEFAULT_SEED = 20260809


@dataclass(frozen=True)
class ExperimentConfig:
    pattern: str = "ab"
    N_list: tuple[int, ...] = (1, 2, 4, 8)
    T_rule: tuple[str, float] = ("scaled", 0.16)
    m_rule: tuple[str, float] = ("scaled", 16)
    K_rule: tuple[str, float] = ("per_m", 4)
    hole_halfwidth: float = 0.02
    samples_per_strip: int = 20000
    seed: int = DEFAULT_SEED
    output: str = "sweep.csv"
    phase_H: float = DEFAULT_PHASE_H
    phase_V: float = DEFAULT_PHASE_V
    phase_D: float | str = AUTO
    ramp_fraction: float = DEFAULT_RAMP_FRACTION
    time_samples: int = 8
    space_samples: int = 400
    grid_oracle_size: int = 400

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
        for key in ("samples_per_strip", "time_samples", "space_samples",
                    "grid_oracle_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")

    def T_for(self, N: int) -> float:
        kind, value = self.T_rule
        return value / N if kind == "scaled" else value

    def m_for(self, N: int) -> int:
        kind, value = self.m_rule
        m = value * N if kind == "scaled" else value
        mi = round(m) if math.isfinite(m) else 0
        if mi < 1 or abs(m - mi) > 1e-12:
            raise ConfigError(f"m rule yields non-integer {m} for N={N}")
        return mi

    def K_for(self, m: int) -> int:
        kind, value = self.K_rule
        k = value * m if kind == "per_m" else value
        ki = round(k) if math.isfinite(k) else 0
        if ki < 1 or abs(k - ki) > 1e-12 or ki % m != 0:
            raise ConfigError(f"K={k} must be a positive multiple of m={m}")
        return ki

    def build(self, N: int) -> Scenario:
        try:
            return build_scenario(
                N, self.T_for(N), self.m_for(N), self.hole_halfwidth,
                phases=(self.phase_H, self.phase_V, self.phase_D),
                ramp_fraction=self.ramp_fraction)
        except ValueError as exc:
            raise ConfigError(f"N={N}: {exc}") from exc


_INT_KEYS = {"samples_per_strip", "seed", "time_samples", "space_samples",
             "grid_oracle_size"}
_FLOAT_KEYS = {"hole_halfwidth", "phase_H", "phase_V", "ramp_fraction"}


def _parse_rule(key: str, tokens: list[str]) -> tuple[str, float]:
    if len(tokens) == 1:
        return ("fixed", float(tokens[0]))
    if len(tokens) == 2:
        return (tokens[0], float(tokens[1]))
    raise ConfigError(f"{key} expects 'kind value' or a plain number")


def _single(key: str, tokens: list[str]) -> str:
    if len(tokens) != 1:
        raise ConfigError(
            f"{key!r} takes one value, got {len(tokens)}: {tokens!r}")
    return tokens[0]


def _assign(fields: dict, key: str, tokens: list[str]):
    try:
        if key in ("T", "T_rule"):
            fields["T_rule"] = _parse_rule("T_rule", tokens)
        elif key in ("m", "m_rule"):
            fields["m_rule"] = _parse_rule("m_rule", tokens)
        elif key in ("K", "K_rule"):
            fields["K_rule"] = _parse_rule("K_rule", tokens)
        elif key == "N_list":
            fields["N_list"] = tuple(int(t) for t in tokens)
        elif key == "pattern":
            fields["pattern"] = _single(key, tokens)
        elif key == "output":
            fields["output"] = " ".join(tokens)
        elif key == "phase_D":
            value = _single(key, tokens)
            fields["phase_D"] = AUTO if value == AUTO else float(value)
        elif key in _INT_KEYS:
            fields[key] = int(_single(key, tokens))
        elif key in _FLOAT_KEYS:
            fields[key] = float(_single(key, tokens))
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _config(fields: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_text(text: str) -> ExperimentConfig:
    fields: dict = {}
    for raw, key, value in document_lines(text):
        if key is None:
            raise ConfigError(f"unparseable config line {raw!r}")
        tokens = value.split()
        if not tokens:
            raise ConfigError(f"empty value for {key!r}")
        _assign(fields, key, tokens)
    return _config(fields)


def config_from_json(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("JSON config must be an object")
    fields: dict = {}
    for key, value in data.items():
        if isinstance(value, list):
            tokens = [str(v) for v in value]
        else:
            tokens = str(value).split()
        _assign(fields, key, tokens)
    return _config(fields)


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
    lines = [
        "# stripflow experiment config",
        f"pattern = {config.pattern}",
        "N_list = " + " ".join(str(n) for n in config.N_list),
        f"T_rule = {config.T_rule[0]} {config.T_rule[1]!r}",
        f"m_rule = {config.m_rule[0]} {config.m_rule[1]!r}",
        f"K_rule = {config.K_rule[0]} {config.K_rule[1]!r}",
        f"hole_halfwidth = {config.hole_halfwidth!r}",
        f"samples_per_strip = {config.samples_per_strip}",
        f"seed = {config.seed}",
        f"phase_H = {config.phase_H!r}",
        f"phase_V = {config.phase_V!r}",
        f"phase_D = {config.phase_D}",
        f"ramp_fraction = {config.ramp_fraction!r}",
        f"time_samples = {config.time_samples}",
        f"space_samples = {config.space_samples}",
        f"grid_oracle_size = {config.grid_oracle_size}",
        f"output = {config.output}",
    ]
    return "\n".join(lines) + "\n"
