"""Benchmark workloads: each is one `stripflow sweep` over a generated config.

Every workload is the default experiment with a few keys changed.  The
seed passed to the benchmark becomes the config's sampling seed, so the
same seed gives the same inputs and, on an unchanged program, the same CSV.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# The seed of the default experiment.  The committed reference CSVs were
# written at this seed, so a run with it must reproduce them byte for byte.
REFERENCE_SEED = 20260809


@dataclass(frozen=True)
class Workload:
    name: str
    N_list: tuple[int, ...]
    samples_per_strip: int
    extra: tuple[tuple[str, str], ...] = ()
    # Written into every config, so the workload and the output check's
    # bad_area tolerance do not follow a change of the program's default.
    ramp_fraction: float = 0.125

    @property
    def samples(self) -> int:
        """Samples drawn by the whole sweep: 3N strips times samples_per_strip."""
        return sum(3 * n * self.samples_per_strip for n in self.N_list)

    @property
    def reference(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.csv"

    def config_text(self, seed: int) -> str:
        lines = [f"N_list = {' '.join(str(n) for n in self.N_list)}",
                 f"samples_per_strip = {self.samples_per_strip}",
                 f"seed = {seed}",
                 f"ramp_fraction = {self.ramp_fraction!r}"]
        lines += [f"{key} = {value}" for key, value in self.extra]
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    # ~95 % of samples are lone periodic orbits; run_batch on large
    # arrays dominates.  Exercises a lone-orbit fast path.
    Workload(
        name="quick-sweep",
        N_list=(1, 2, 4), samples_per_strip=5000),
    # Plain-shear limit: every sample visits a foreign ramp and is bad, so
    # every sample pays closing_word, reduce_letters and an uncached
    # homogenization.  Bypasses a lone-orbit fast path.
    Workload(
        name="full-ramp",
        N_list=(2, 4), samples_per_strip=3000, ramp_fraction=1.0),
    # Hofer/Calabi generator grids at refined quadrature dominate: about
    # 8.4 s of a 13.3 s sweep.
    Workload(
        name="refined-hofer",
        N_list=(2, 4), samples_per_strip=2000,
        extra=(("space_samples", "800"),)),
    # Seconds-long sweep for the benchmark's self-test; not in BENCHMARK.json.
    Workload(
        name="tiny",
        N_list=(1,), samples_per_strip=300,
        extra=(("space_samples", "60"), ("time_samples", "2"))),
)}
