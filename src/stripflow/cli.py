"""Command-line interface: validate / run / sweep / props.

Exit codes: 0 ok; 2 invalid configuration, including an unreadable config
or an unwritable output; 3 infeasible scenario, validity-window violation
or a sample that stays on a cut line; 4 property failure.  Failures also
emit one machine-readable JSON record on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, config_to_text, load_config
from .counting import CountingQM
from .errors import (ConfigError, DegenerateCrossing, InfeasibleScenario,
                     StripflowError, ValidityWindowExceeded)
from .estimator import rho_estimate, rho_predicted
from .flow import calabi, flux_check, hofer_upper_bound
from .surface import scenario_to_text
from .words import primitive_period

COLUMNS = ("N", "T", "m", "tau", "rho_est", "rho_stderr", "rho_pred",
           "bad_area", "hofer_numeric", "hofer_2Ktau", "calabi", "ratio")
CSV_HEADER = ",".join(COLUMNS)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_PROPERTY = 4

# the error contract: the JSON record's kind and the exit code per error
_ERRORS = {
    ConfigError: ("invalid_config", EXIT_CONFIG),
    InfeasibleScenario: ("infeasible_scenario", EXIT_INFEASIBLE),
    ValidityWindowExceeded: ("validity_window_exceeded", EXIT_INFEASIBLE),
    DegenerateCrossing: ("degenerate_crossing", EXIT_INFEASIBLE),
}


def _g(x: float) -> str:
    return format(float(x), ".12g")


def _error_record(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


def _sweep_row(config: ExperimentConfig, n: int) -> dict:
    scenario = config.build(n)
    q = CountingQM.from_text(config.pattern)
    tau = scenario.tau
    est = rho_estimate(scenario, q, K=config.K_for(scenario.m),
                       samples_per_strip=config.samples_per_strip,
                       seed=config.seed)
    pred = rho_predicted(scenario, q)
    bound = hofer_upper_bound(scenario, tau, time_samples=config.time_samples,
                              space_samples=config.space_samples)
    cal = calabi(scenario, tau, time_samples=config.time_samples,
                 space_samples=config.space_samples)
    return {
        "N": n,
        "T": scenario.T,
        "m": scenario.m,
        "tau": tau,
        "rho_est": est.value,
        "rho_stderr": est.stderr,
        "rho_pred": pred.value,
        "bad_area": est.bad_area,
        "hofer_numeric": bound.numeric,
        "hofer_2Ktau": bound.analytic,
        "calabi": cal,
        "ratio": abs(est.value) / bound.numeric if bound.numeric else 0.0,
        "_estimate": est,
        "_scenario": scenario,
    }


def _format_row(row: dict) -> str:
    return ",".join(_g(row[column]) for column in COLUMNS)


def cmd_validate(config: ExperimentConfig) -> int:
    for n in config.N_list:
        scenario = config.build(n)
        fa, fb = flux_check(scenario)
        report = scenario.validation
        print(f"N={n}: 3N={3 * n} strips, flux=({fa:g},{fb:g}), "
              f"overlaps={len(report.pairwise_overlaps)}, "
              f"bad_budget={report.bad_area_budget:.6g}, "
              f"min_spacing={report.min_overlap_spacing:.6g}")
    print("all scenarios valid")
    return EXIT_OK


def _class_label(key: str) -> str:
    """A class as ``run`` prints it: (identity) for the empty word, and a
    word over 64 letters as a power of its primitive root, e.g. (BA)^5000."""
    if len(key) <= 64:
        return key or "(identity)"
    period = primitive_period(key)
    return f"({key[:period]})^{len(key) // period}"


def cmd_run(config: ExperimentConfig, dump_scenario: bool) -> int:
    if not config.N_list:
        print("empty N_list: nothing to run")
        return EXIT_OK
    n = config.N_list[0]
    row = _sweep_row(config, n)
    if dump_scenario:
        print(scenario_to_text(row["_scenario"]), end="")
    print(CSV_HEADER)
    print(_format_row(row))
    est = row["_estimate"]
    print(f"# samples={est.samples} bad_area={_g(est.bad_area)} "
          f"bad_bound={_g(est.bad_contribution_bound)}")
    for key in sorted(est.per_class):
        area, contribution = est.per_class[key]
        print(f"# class {_class_label(key)}: area={_g(area)} "
              f"contribution={_g(contribution)}")
    return EXIT_OK


def cmd_sweep(config: ExperimentConfig, output: str | None) -> int:
    rows = [_sweep_row(config, n) for n in config.N_list]
    lines = [CSV_HEADER] + [_format_row(r) for r in rows]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    path = Path(output or config.output)
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    print(f"# wrote {path}", file=sys.stderr)
    return EXIT_OK


def cmd_props(config: ExperimentConfig, name_filter: str | None) -> int:
    from .properties import run_property_suite  # only props loads the suite

    results = run_property_suite(config, name_filter)
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
    failed = [name for name, passed, _ in results if not passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    if failed:
        _error_record("property_failure", f"failed: {', '.join(failed)}")
        return EXIT_PROPERTY
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stripflow",
        description="Strip-shear Hamiltonian flows on the one-holed torus: "
                    "quasimorphism growth vs. Hofer-length bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="build and check scenarios")
    p_validate.add_argument("config", nargs="?", help="config file (kv or JSON)")

    p_run = sub.add_parser("run", help="run the first N of the config")
    p_run.add_argument("config", nargs="?")
    p_run.add_argument("--dump-scenario", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run every N and write the CSV")
    p_sweep.add_argument("config", nargs="?")
    p_sweep.add_argument("--output", help="override the CSV output path")

    p_props = sub.add_parser("props", help="run the invariant property suite")
    p_props.add_argument("config", nargs="?")
    p_props.add_argument("--filter", help="only properties whose name contains this")

    p_cfg = sub.add_parser("show-config", help="print the effective config")
    p_cfg.add_argument("config", nargs="?")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "run":
            return cmd_run(config, args.dump_scenario)
        if args.command == "sweep":
            return cmd_sweep(config, args.output)
        if args.command == "props":
            return cmd_props(config, args.filter)
        if args.command == "show-config":
            print(config_to_text(config), end="")
            return EXIT_OK
    except StripflowError as exc:
        kind, code = _ERRORS[type(exc)]
        _error_record(kind, str(exc))
        return code
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
