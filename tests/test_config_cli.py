"""Configuration parsing and the command-line interface."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stripflow import cli
from stripflow.cli import CSV_HEADER, main
from stripflow.config import (ExperimentConfig, config_from_json,
                              config_from_text, config_to_text, load_config)
from stripflow.errors import (ConfigError, DegenerateCrossing,
                              InfeasibleScenario, StripflowError,
                              ValidityWindowExceeded)

TINY = """
pattern = ab
N_list = 1
T = 0.05
m = 8
K_rule = per_m 2
hole_halfwidth = 0.02
samples_per_strip = 400
seed = 3
space_samples = 120
time_samples = 2
output = out.csv
"""


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.N_list == (1, 2, 4, 8)
    assert cfg.T_for(4) == pytest.approx(0.04)
    assert cfg.m_for(4) == 64
    assert cfg.K_for(64) == 256
    assert cfg.samples_per_strip == 20000


def test_parse_text_and_json_mirror():
    cfg = config_from_text(TINY)
    assert cfg.N_list == (1,)
    assert cfg.T_rule == ("fixed", 0.05)
    assert cfg.m_for(1) == 8
    assert cfg.K_for(8) == 16
    mirror = {
        "pattern": "ab", "N_list": [1], "T": 0.05, "m": 8,
        "K_rule": ["per_m", 2], "hole_halfwidth": 0.02,
        "samples_per_strip": 400, "seed": 3, "space_samples": 120,
        "time_samples": 2, "output": "out.csv",
    }
    assert config_from_json(json.dumps(mirror)) == cfg


def test_config_round_trip():
    cfg = ExperimentConfig(N_list=(2,), seed=99)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_show_config_prints_rule_values_as_written(capsys, tmp_path):
    p = tmp_path / "rules.cfg"
    p.write_text("T = 0.05\nm_rule = fixed 8\nK_rule = per_m 2.0\n")
    assert main(["show-config", str(p)]) == 0
    text = capsys.readouterr().out
    assert "T_rule = fixed 0.05\n" in text
    assert "m_rule = fixed 8\n" in text
    assert "K_rule = per_m 2.0\n" in text
    cfg = load_config(p)
    assert config_from_text(text) == cfg and config_to_text(cfg) == text
    assert config_to_text(config_from_text(text)) == text
    mirror = config_from_json('{"m": 8, "K_rule": ["per_m", 2]}')
    assert "m_rule = fixed 8\nK_rule = per_m 2\n" in config_to_text(mirror)


# one non-default value per configuration key
_NON_DEFAULT = {
    "pattern": "aB", "N_list": (3, 5), "T_rule": ("fixed", 0.05),
    "m_rule": ("fixed", 12.0), "K_rule": ("per_m", 3.0),
    "hole_halfwidth": 0.03, "samples_per_strip": 123, "seed": 7,
    "phase_H": 0.25, "phase_V": 0.125, "phase_D": 0.5, "ramp_fraction": 0.5,
    "time_samples": 3, "space_samples": 50, "output": "my out.csv",
}


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
def test_every_key_round_trips(key):
    assert set(_NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)}
    value = _NON_DEFAULT[key]
    assert value != getattr(ExperimentConfig(), key)
    cfg = ExperimentConfig(**{key: value})
    assert config_from_text(config_to_text(cfg)) == cfg
    mirror = list(value) if isinstance(value, tuple) else value
    assert config_from_json(json.dumps({key: mirror})) == cfg


def test_parse_errors():
    with pytest.raises(ConfigError):
        config_from_text("pattern = xy\n")
    with pytest.raises(ConfigError):
        config_from_text("mystery = 3\n")
    with pytest.raises(ConfigError):
        config_from_text("T_rule = a b c\n")
    with pytest.raises(ConfigError):
        config_from_json("[1, 2]")
    cfg = config_from_text("K = 10\nm = 16\n")
    with pytest.raises(ConfigError):
        cfg.K_for(cfg.m_for(1))  # 10 is not a multiple of 16
    cfg = config_from_text("K = 20.4\nm = 4\n")
    with pytest.raises(ConfigError):
        cfg.K_for(cfg.m_for(1))  # 20.4 is not an integer


# a key is set once, directly or through its alias (T, m, K); the same
# value twice is refused too
REPEATED = [
    (("seed", 1), ("seed", 2)),
    (("seed", 3), ("seed", 3)),
    (("T", 0.05), ("T_rule", "scaled 0.16")),
    (("m_rule", "fixed 8"), ("m", 8)),
    (("K", 16), ("K_rule", "per_m 2")),
    (("N_list", "1"), ("N_list", "2")),
]


@pytest.mark.parametrize("pairs", REPEATED)
def test_repeated_keys_are_refused(pairs):
    text = "".join(f"{key} = {value}\n" for key, value in pairs)
    with pytest.raises(ConfigError, match="repeated configuration key"):
        config_from_text(text)
    # a JSON object's repeated member would otherwise keep its last value
    members = ", ".join(f"{json.dumps(key)}: {json.dumps(value)}"
                        for key, value in pairs)
    with pytest.raises(ConfigError, match="repeated configuration key"):
        config_from_json("{" + members + "}")


@pytest.mark.parametrize("name,text", [
    ("seed.cfg", TINY + "seed = 4\n"),
    ("T_rule.cfg", TINY + "T_rule = scaled 0.16\n"),
    ("seed.json", '{"N_list": [1], "seed": 1, "seed": 2}'),
])
def test_cli_repeated_key_exit_code(name, text, tmp_path, capsys):
    p = tmp_path / name
    p.write_text(text)
    for command in ("validate", "sweep", "show-config"):
        assert main([command, str(p)]) == 2
        assert _one_error_record(capsys.readouterr().err)["error"] == \
            "invalid_config"


@pytest.mark.parametrize("line", [
    "pattern = ab BA", "phase_D = auto 0.3", "phase_D = 0.1 0.2",
    "seed = 1 2", "samples_per_strip = 400 500", "hole_halfwidth = 0.02 0.03",
    "ramp_fraction = 0.5 x"])
def test_single_valued_keys_reject_extra_tokens(line):
    with pytest.raises(ConfigError, match="takes one value"):
        config_from_text(line + "\n")
    key, value = (part.strip() for part in line.split("=", 1))
    with pytest.raises(ConfigError, match="takes one value"):
        config_from_json(json.dumps({key: value.split()}))
    with pytest.raises(ConfigError, match="takes one value"):
        config_from_json(json.dumps({key: []}))


def test_multi_token_keys_keep_their_tokens():
    cfg = config_from_text("N_list = 1 2 4\nT_rule = scaled 0.16\n"
                           "m_rule = fixed 16\nK_rule = per_m 4\n"
                           "output = my sweep.csv\n")
    assert cfg.N_list == (1, 2, 4)
    assert cfg.T_rule == ("scaled", 0.16)
    assert cfg.m_rule == ("fixed", 16.0)
    assert cfg.K_rule == ("per_m", 4.0)
    assert cfg.output == "my sweep.csv"


def test_load_config_by_suffix(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(TINY)
    assert load_config(p) == config_from_text(TINY)
    j = tmp_path / "c.json"
    j.write_text(json.dumps({"pattern": "ab", "N_list": [1]}))
    assert load_config(j).N_list == (1,)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def _with_line(text: str, line: str) -> str:
    """``text`` with ``line`` in place of the line that sets its key (T, m
    and K set the same keys as T_rule, m_rule and K_rule)."""
    def key(assignment):
        return assignment.split("=", 1)[0].strip().removesuffix("_rule")

    kept = [old for old in text.splitlines() if key(old) != key(line)]
    return "\n".join(kept + [line]) + "\n"


def _write_tiny(tmp_path, **overrides):
    text = TINY
    for key, value in overrides.items():
        text = _with_line(text, f"{key} = {value}")
    p = tmp_path / "tiny.cfg"
    p.write_text(text)
    return p


def test_cli_validate_ok(tmp_path, capsys):
    assert main(["validate", str(_write_tiny(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "all scenarios valid" in out


def test_cli_sweep_writes_csv_deterministically(tmp_path, capsys):
    cfg_path = _write_tiny(tmp_path, output=str(tmp_path / "sweep.csv"))
    assert main(["sweep", str(cfg_path)]) == 0
    capsys.readouterr()
    first = (tmp_path / "sweep.csv").read_bytes()
    assert first.decode().splitlines()[0] == CSV_HEADER
    assert main(["sweep", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_cli_empty_N_list(tmp_path, capsys):
    # an empty sweep is valid: header-only table, exit 0
    j = tmp_path / "none.json"
    j.write_text(json.dumps({"pattern": "ab", "N_list": [],
                             "output": str(tmp_path / "e.csv")}))
    assert main(["sweep", str(j)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER
    assert (tmp_path / "e.csv").read_text().strip() == CSV_HEADER


def test_cli_run_prints_breakdown(tmp_path, capsys):
    assert main(["run", str(_write_tiny(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert CSV_HEADER in out
    assert "# class" in out


def test_cli_infeasible_exit_code(tmp_path, capsys):
    p = _write_tiny(tmp_path, phase_D="0.04")  # triple-overlap phase
    assert main(["validate", str(p)]) == 3
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "infeasible_scenario"


def test_cli_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("pattern = zz\n")
    assert main(["validate", str(p)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "invalid_config"


@pytest.mark.parametrize("text", ["m = 1e300\n", "m = 1e300\nK = 64\n"])
def test_cli_refuses_a_huge_m_by_name(text, tmp_path, capsys):
    # every sample runs K >= m steps: m is refused by name before K is
    # formed, and the detail gives its numbers to 12 digits, not 301
    p = tmp_path / "huge_m.cfg"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    record = _one_error_record(err)
    assert record["error"] == "invalid_config"
    assert len(err.strip()) < 200
    assert "m=1e+300 " in record["detail"] and "K=" not in record["detail"]


def test_cli_props_filter(tmp_path, capsys):
    assert main(["props", str(_write_tiny(tmp_path)), "--filter", "word"]) == 0
    out = capsys.readouterr().out
    assert "PASS word_algebra" in out


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_cli_workers_below_one_exit_code(raw, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STRIPFLOW_WORKERS", raw)
    p = _write_tiny(tmp_path, output=str(tmp_path / "sweep.csv"))
    assert main(["sweep", str(p)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "invalid_config"


def test_cli_non_integer_workers_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STRIPFLOW_WORKERS", "two")
    p = _write_tiny(tmp_path, output=str(tmp_path / "sweep.csv"))
    assert main(["sweep", str(p)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "invalid_config"


# Golden sweep CSVs: they may change only with a deliberate, documented
# output change.  The second config puts every sample on a bad orbit, which
# runs the closing-word path.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["small", "small_full_ramp"])
def test_cli_sweep_matches_golden_csv(name, tmp_path, capsys):
    cfg = str(GOLDEN / f"{name}.cfg")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", cfg, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == out.read_text()
    # the stdout of the other commands, byte for byte
    for command, *flags in (["run", "--dump-scenario"], ["validate"],
                            ["show-config"], ["props"]):
        assert main([command, cfg, *flags]) == 0
        golden = GOLDEN / f"{name}.{command}.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_cli_run_prints_long_classes_as_powers(tmp_path):
    # at this ramp fraction a lone orbit crosses 5000 cut lines per axis:
    # its class is printed as a power of its primitive root, e.g. (BA)^5000
    p = tmp_path / "long.cfg"
    p.write_text("N_list = 1\nm_rule = fixed 8\nK_rule = per_m 2\n"
                 "samples_per_strip = 400\nramp_fraction = 2e-4\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "stripflow.cli", "run",
                           str(p)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "long_classes.run.txt").read_text(
        encoding="utf-8")


def test_class_label():
    assert cli._class_label("") == "(identity)"
    assert cli._class_label("ab" * 32) == "ab" * 32
    assert cli._class_label("aB" * 40) == "(aB)^40"
    assert cli._class_label("abb" * 30) == "(abb)^30"
    assert cli._class_label("a" * 64 + "b") == "(" + "a" * 64 + "b)^1"


def test_cli_show_config(capsys):
    assert main(["show-config"]) == 0
    out = capsys.readouterr().out
    golden = GOLDEN / "default.show-config.txt"
    assert out == golden.read_text(encoding="utf-8")


def _one_error_record(err: str) -> dict:
    lines = err.strip().splitlines()
    assert len(lines) == 1, lines
    record = json.loads(lines[0])
    assert set(record) == {"error", "detail"}
    return record


# an integer too large for a float
HUGE = 10**400


# Each document is TINY with the given line in place of the line that sets
# its key (a key may be set once); {tmp} is the test directory and \udcff is
# written as the raw byte 0xff, which is not UTF-8.
BROKEN = {
    "T_too_wide": ("validate", "T = 0.3", 2, "invalid_config"),
    "hole_too_wide": ("validate", "hole_halfwidth = 0.5", 2, "invalid_config"),
    "no_ramp": ("validate", "ramp_fraction = 0", 2, "invalid_config"),
    "N_zero": ("validate", "N_list = 0", 2, "invalid_config"),
    "samples_not_int": ("validate", "samples_per_strip = abc", 2,
                        "invalid_config"),
    "seed_not_int": ("validate", "seed = 1.5", 2, "invalid_config"),
    "N_not_int": ("validate", "N_list = 1 x", 2, "invalid_config"),
    "K_not_int": ("sweep", "K = 16.4", 2, "invalid_config"),
    "pattern_two_tokens": ("validate", "pattern = ab BA", 2, "invalid_config"),
    "seed_two_tokens": ("validate", "seed = 1 2", 2, "invalid_config"),
    "no_time_samples": ("sweep", "time_samples = 0", 2, "invalid_config"),
    "pattern_reduces_to_identity": ("sweep", "pattern = aA", 2,
                                    "invalid_config"),
    "not_utf8": ("validate", "# \udcff", 2, "invalid_config"),
    "unwritable_output": ("sweep", "output = {tmp}/missing/out.csv", 2,
                          "invalid_config"),
    "property_failure": ("props", "phase_D = 0.04", 4, "property_failure"),
    "phase_H_inf": ("validate", "phase_H = inf", 2, "invalid_config"),
    "phase_V_nan": ("validate", "phase_V = nan", 2, "invalid_config"),
    "phase_D_nan": ("validate", "phase_D = nan", 2, "invalid_config"),
    # validate makes every check that run and sweep make before sampling
    "validate_m_too_small": ("validate", "m = 2", 3,
                             "validity_window_exceeded"),
    "validate_K_not_int": ("validate", "K = 16.4", 2, "invalid_config"),
    # too many cut lines crossed per axis: refused before any sampling
    "validate_ramp_1e-9": ("validate", "ramp_fraction = 1e-9", 2,
                           "invalid_config"),
    "validate_ramp_1e-5": ("validate", "ramp_fraction = 1e-5", 2,
                           "invalid_config"),
    "run_ramp_1e-9": ("run", "ramp_fraction = 1e-9", 2, "invalid_config"),
    "run_ramp_1e-5": ("run", "ramp_fraction = 1e-5", 2, "invalid_config"),
    # a ramp (T / 8 wide) at most twice the lone-orbit margin of K steps:
    # no orbit on it can be told lone, and floats cannot resolve it
    "validate_T_1e-13": ("validate", "T = 1e-13", 2, "invalid_config"),
    "run_T_1e-300": ("run", "T = 1e-300", 2, "invalid_config"),
    # too many steps (K = 4e20 crosses 6.4 lines per axis)
    "validate_m_1e20": ("validate", "m = 1e20", 2, "invalid_config"),
    "run_m_1e20": ("run", "m = 1e20", 2, "invalid_config"),
    # a generator series of 16 * 100000^2 bytes
    "validate_space_samples_1e5": ("validate", "space_samples = 100000", 2,
                                   "invalid_config"),
    "run_space_samples_1e5": ("run", "space_samples = 100000", 2,
                              "invalid_config"),
    # one strip's 10^11 samples at 1 KiB each
    "validate_samples_1e11": ("validate", "samples_per_strip = 100000000000",
                              2, "invalid_config"),
    "run_samples_1e11": ("run", "samples_per_strip = 100000000000", 2,
                         "invalid_config"),
    # a generator series of 10^9 time nodes over 120^2 grid points
    "validate_time_samples_1e9": ("validate", "time_samples = 1000000000", 2,
                                  "invalid_config"),
    "run_time_samples_1e9": ("run", "time_samples = 1000000000", 2,
                             "invalid_config"),
    # integers too large for a float are refused, not an OverflowError
    "validate_m_1e400": ("validate", f"m = {HUGE}", 2, "invalid_config"),
    "validate_K_1e400": ("validate", f"K = {HUGE}", 2, "invalid_config"),
    "validate_samples_1e400": ("validate", f"samples_per_strip = {HUGE}", 2,
                               "invalid_config"),
    "validate_T_scaled_1e400": ("validate", f"T_rule = scaled {HUGE}", 2,
                                "invalid_config"),
    "validate_space_samples_1e400": ("validate", f"space_samples = {HUGE}",
                                     2, "invalid_config"),
}
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_cli_error_contract(case, tmp_path, capsys):
    command, line, code, error = BROKEN[case]
    p = tmp_path / "broken.cfg"
    text = _with_line(TINY, line.format(tmp=tmp_path))
    p.write_bytes(text.encode("utf-8", "surrogateescape"))
    args = [command, str(p)] + (["--filter", "flux"] if command == "props" else [])
    if command == "run":  # a config let through would sample: it may hang
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "stripflow.cli", *args],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == code
        assert _one_error_record(done.stderr)["error"] == error
        return
    assert main(args) == code
    assert _one_error_record(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize("suffix", [".cfg", ".json"])
@pytest.mark.parametrize("key", ["m", "K", "samples_per_strip"])
def test_cli_refuses_integers_too_large_for_a_float(key, suffix, tmp_path,
                                                    capsys):
    # refused by name with 12 digits, in the text and the JSON form alike
    values = {"N_list": 1, "T": 0.05, "m": 8, key: HUGE}
    p = tmp_path / f"huge{suffix}"
    p.write_text(json.dumps(values) if suffix == ".json" else
                 "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    record = _one_error_record(err)
    assert record["error"] == "invalid_config"
    assert len(err.strip()) < 200
    assert f"{key}=1e+400 " in record["detail"]


@pytest.mark.parametrize("suffix", [".cfg", ".json"])
@pytest.mark.parametrize("rule", [{"m": 8}, {"m_rule": "scaled 8"}])
def test_cli_refuses_an_n_too_large_for_a_float(suffix, rule, tmp_path,
                                                capsys):
    # the error is prefixed with N to 12 digits, not all 401 of them
    values = {"N_list": HUGE, "T": 0.05, **rule}
    p = tmp_path / f"huge_n{suffix}"
    p.write_text(json.dumps(values) if suffix == ".json" else
                 "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["validate", str(p)]) == 2
    record = _one_error_record(capsys.readouterr().err)
    assert record["error"] == "invalid_config"
    assert record["detail"].startswith("N=1e+400: ")
    assert len(record["detail"]) < 200, record["detail"]


def test_cli_degenerate_crossing_exit_code(tmp_path, capsys, monkeypatch):
    def stuck(*args, **kwargs):
        raise DegenerateCrossing("sample stays on a cut line")

    monkeypatch.setattr(cli, "rho_estimate", stuck)
    assert main(["sweep", str(_write_tiny(tmp_path))]) == 3
    assert _one_error_record(capsys.readouterr().err)["error"] == \
        "degenerate_crossing"


# every package error, its JSON kind and its exit code
_CONTRACT = {ConfigError: ("invalid_config", 2),
             InfeasibleScenario: ("infeasible_scenario", 3),
             ValidityWindowExceeded: ("validity_window_exceeded", 3),
             DegenerateCrossing: ("degenerate_crossing", 3)}


@pytest.mark.parametrize("error", sorted(_CONTRACT, key=lambda e: e.__name__))
def test_cli_error_contract_per_error_type(error, tmp_path, capsys,
                                           monkeypatch):
    assert set(StripflowError.__subclasses__()) == set(_CONTRACT)

    def fail(*args, **kwargs):
        raise error("detail")

    monkeypatch.setattr(cli, "rho_estimate", fail)
    kind, code = _CONTRACT[error]
    assert main(["run", str(_write_tiny(tmp_path))]) == code
    assert _one_error_record(capsys.readouterr().err) == \
        {"error": kind, "detail": "detail"}


# Hostile config documents: every outcome is a documented exit code with one
# JSON stderr line on failure.  N stays <= 16 (validation is O(N^3)): no
# value below parses as an integer above 16.
_KEYS = ("pattern", "N_list", "T", "T_rule", "m", "m_rule", "K", "K_rule",
         "hole_halfwidth", "samples_per_strip", "seed", "output", "phase_H",
         "phase_V", "phase_D", "ramp_fraction", "time_samples",
         "space_samples", "grid_oracle_size", "no_such_key")
_TEXT_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e400", "abc", "",
                     "aA", "ab", "abAB", "auto", "scaled", "per_m 4",
                     "fixed 0.05", "scaled 0.16 9", "0.3", "0.02", "1 x",
                     "1 2 4", "0.5"]),
    st.integers(-2, 16).map(str),
    st.floats().map(repr))
_JSON_VALUES = st.one_of(
    _TEXT_VALUES, st.integers(-2, 16), st.floats(), st.none(), st.booleans(),
    st.lists(st.one_of(st.integers(-2, 16), _TEXT_VALUES), max_size=3))


@st.composite
def _documents(draw):
    if draw(st.booleans()):
        fields = draw(st.dictionaries(st.sampled_from(_KEYS), _JSON_VALUES,
                                      max_size=6))
        return "c.json", json.dumps(fields)
    fields = draw(st.dictionaries(st.sampled_from(_KEYS), _TEXT_VALUES,
                                  max_size=6))
    return "c.cfg", "".join(f"{k} = {v}\n" for k, v in fields.items())


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_documents())
def test_cli_fuzz_config_documents(document):
    name, text = document
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        for command in ("validate", "show-config"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (0, 2, 3)
            if code:
                _one_error_record(err.getvalue())
            else:
                assert err.getvalue() == ""
