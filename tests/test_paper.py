"""The paper's claims beyond the acceptance gate: the induced quasimorphism
is neither continuous nor Lipschitz in the Hofer norm, and
rho ~ tau * N * d_r holds for other counted patterns."""
from dataclasses import replace
from pathlib import Path

import pytest

from stripflow.cli import _sweep_row
from stripflow.config import ExperimentConfig, load_config
from stripflow.counting import CountingQM
from stripflow.estimator import rho_estimate, rho_predicted

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_not_continuous_in_hofer_norm():
    # m fixed: tau = T/m halves with each doubling of N, so the analytic
    # Hofer bound 6 tau goes to 0 while rho ~ tau * N * d_r stays put
    config = replace(load_config(CONFIGS / "continuity.cfg"),
                     samples_per_strip=200)
    rows = [_sweep_row(config, n) for n in config.N_list]
    assert [row["N"] for row in rows] == [8, 16, 32]
    for row, nxt in zip(rows, rows[1:]):
        assert nxt["hofer_2Ktau"] == pytest.approx(row["hofer_2Ktau"] / 2)
    for row in rows:
        assert row["hofer_numeric"] <= row["hofer_2Ktau"]
        assert row["rho_pred"] == pytest.approx(-0.16 / 256)
        assert 0.8 <= row["rho_est"] / row["rho_pred"] <= 1.0


@pytest.mark.parametrize("N", [1, 2])
def test_other_patterns_follow_the_deficiency(N):
    config = ExperimentConfig()
    scenario = config.build(N)

    def rho(text):
        q = CountingQM.from_text(text)
        est = rho_estimate(scenario, q, K=config.K_for(scenario.m),
                           samples_per_strip=1000, seed=3)
        return est, rho_predicted(scenario, q).value

    ab, ab_pred = rho("ab")
    for text in ("aa", "bb", "abab"):
        est, pred = rho(text)
        assert 0.9 <= est.value / pred <= 1.0, text
    assert 0.9 <= ab.value / ab_pred <= 1.0
    assert rho("abab")[0].value * ab.value > 0
    # A = a^-1 counts the inverse orbits: exactly the negation of aa
    assert rho("AA")[0].value.hex() == (-rho("aa")[0].value).hex()
    # aab has d_r = 0: no drift beyond the sampling error
    null, null_pred = rho("aab")
    assert null_pred == 0.0
    assert abs(null.value) <= 3 * null.stderr


def test_not_lipschitz_up_to_32_strips():
    # the reach layout at N = 16, 32: tau = T/m, and with it the Hofer
    # bound 6 tau, shrinks as 1/N^2 while rho ~ tau * N * d_r shrinks only
    # as 1/N, so |rho| per unit of Hofer norm grows in proportion to N
    config = load_config(CONFIGS / "reach.cfg")
    q = CountingQM.from_text(config.pattern)
    per_tau = {}
    for n in (16, 32):
        scenario = config.build(n)
        est = rho_estimate(scenario, q, K=config.K_for(scenario.m),
                           samples_per_strip=50, seed=config.seed)
        pred = rho_predicted(scenario, q).value
        assert est.value < 0
        assert 0.5 < est.value / pred < 1.5
        per_tau[n] = abs(est.value) / scenario.tau
    assert 1.8 <= per_tau[32] / per_tau[16] <= 2.2
