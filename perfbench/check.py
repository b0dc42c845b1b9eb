"""Output check: compare a sweep CSV with the workload's reference CSV.

The reference was written by the program at ``REFERENCE_SEED``.  A run at
any seed is checked column by column:

* ``N,T,m,tau,rho_pred,hofer_numeric,hofer_2Ktau,calabi`` do not depend on
  sampling and must match the reference text exactly.
* ``rho_est``: the two estimates are independent stratified means, so
  ``|rho_est - rho_ref| <= Z * sqrt(stderr^2 + stderr_ref^2)``.
* ``bad_area``: a sum over 3N strips of ``a * mean(w * [bad])`` with ramp
  area ``a = T * ramp_fraction``, ``n = samples_per_strip`` samples per
  strip and weights ``w <= 1``, so its variance is at most ``a * bad / n``
  and ``|bad - bad_ref| <= Z * sqrt(a * (bad + bad_ref) / n)``.
* ``rho_stderr``: within a factor ``STDERR_FACTOR`` of the reference.  Its
  seed-to-seed spread on the benchmark workloads is under 30 %.
* ``ratio``: equals ``|rho_est| / hofer_numeric`` to 1e-9 relative; both
  sides are printed to 12 significant digits.

``Z = 6`` keeps the chance that a correct run fails below about 1e-8 per
value.  At ``REFERENCE_SEED`` every value must match exactly, which
``identical`` reports separately.
"""
from __future__ import annotations

import math

HEADER = ("N,T,m,tau,rho_est,rho_stderr,rho_pred,bad_area,"
          "hofer_numeric,hofer_2Ktau,calabi,ratio")
EXACT = ("N", "T", "m", "tau", "rho_pred", "hofer_numeric", "hofer_2Ktau",
         "calabi")
Z = 6.0
STDERR_FACTOR = 2.0
RATIO_RTOL = 1e-9


def parse(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing or wrong CSV header")
    keys = HEADER.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(keys):
            raise ValueError(f"row with {len(fields)} fields: {line!r}")
        rows.append(dict(zip(keys, fields)))
    return rows


def problems(text: str, reference: str, samples_per_strip: int,
             ramp_fraction: float) -> list[str]:
    """Every way ``text`` fails the check against ``reference``; empty if it passes."""
    try:
        rows, refs = parse(text), parse(reference)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != len(refs):
        return [f"{len(rows)} rows, reference has {len(refs)}"]
    if not text.endswith("\n"):
        return ["CSV does not end with a newline"]
    out = []
    for row, ref in zip(rows, refs):
        label = f"N={ref['N']}"
        try:
            values = {k: float(v) for k, v in row.items()}
        except ValueError as exc:
            out.append(f"{label}: {exc}")
            continue
        if not all(math.isfinite(v) for v in values.values()):
            out.append(f"{label}: non-finite value")
            continue
        for key in EXACT:
            if row[key] != ref[key]:
                out.append(f"{label}: {key} {row[key]} != reference {ref[key]}")
        refv = {k: float(v) for k, v in ref.items()}
        se, se_ref = values["rho_stderr"], refv["rho_stderr"]
        if abs(values["rho_est"] - refv["rho_est"]) > Z * math.hypot(se, se_ref):
            out.append(f"{label}: rho_est {row['rho_est']} differs from "
                       f"{ref['rho_est']} by more than {Z} standard errors")
        if not (se_ref / STDERR_FACTOR <= se <= se_ref * STDERR_FACTOR):
            out.append(f"{label}: rho_stderr {row['rho_stderr']} not within a "
                       f"factor {STDERR_FACTOR} of {ref['rho_stderr']}")
        area = refv["T"] * ramp_fraction
        bad, bad_ref = values["bad_area"], refv["bad_area"]
        if bad < 0 or abs(bad - bad_ref) > Z * math.sqrt(
                area * (bad + bad_ref) / samples_per_strip):
            out.append(f"{label}: bad_area {row['bad_area']} outside the "
                       f"tolerance around {ref['bad_area']}")
        if values["hofer_numeric"] <= 0:
            out.append(f"{label}: hofer_numeric is not positive")
        else:
            ratio = abs(values["rho_est"]) / values["hofer_numeric"]
            if abs(values["ratio"] - ratio) > RATIO_RTOL * ratio:
                out.append(f"{label}: ratio {row['ratio']} != "
                           f"|rho_est|/hofer_numeric = {ratio!r}")
    return out
