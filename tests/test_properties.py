"""Property suite wiring, including injected-bug detection."""
from stripflow.config import ExperimentConfig
from stripflow.properties import PROPERTIES, run_property_suite
from stripflow.surface import HoledTorus, Scenario, StripSpec

TINY = ExperimentConfig(N_list=(1,), T_rule=("fixed", 0.05),
                        m_rule=("fixed", 8), K_rule=("per_m", 2),
                        samples_per_strip=400, seed=3)


def test_suite_passes_on_valid_config():
    results = run_property_suite(TINY)
    failures = [(n, d) for n, ok, d in results if not ok]
    assert failures == []
    assert len(results) == len(PROPERTIES)


def test_suite_filter():
    results = run_property_suite(TINY, name_filter="word")
    names = [n for n, _, _ in results]
    assert names == sorted(n for n in PROPERTIES if "word" in n)


def test_injected_flux_bug_fails_flux_property():
    # single-strip fixture: flux (1, 0), the flux property must fail
    import random

    from stripflow.properties import prop_flux_zero

    lone = Scenario(HoledTorus(0.02),
                    (StripSpec("H", 0.3, 0.05, 1, 0.0),), 1, 0.05, 10)

    class Broken(ExperimentConfig):
        def build(self, n):
            return lone

    cfg = Broken(N_list=(1,))
    passed, detail = prop_flux_zero(random.Random(0), cfg)
    assert not passed
    assert "flux" in detail


def test_injected_orientation_bug_fails_antisymmetry():
    # a scenario whose "mirror" is itself is not antisymmetric: the check
    # must report a failure when the orientation flip is broken
    import random

    from stripflow import build_scenario
    from stripflow.counting import CountingQM
    from stripflow.estimator import rho_estimate

    scenario = build_scenario(1, 0.16, 16, 0.02)
    q = CountingQM.from_text("ab")
    est = rho_estimate(scenario, q, samples_per_strip=1500, seed=3)
    broken_sum = est.value + est.value  # orientation flip forgotten
    assert abs(broken_sum) > 2 * (2 * est.stderr)
