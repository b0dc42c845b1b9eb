"""Seeded invariant suite runnable from the CLI (`stripflow props`).

Every property is a function (rng, config) -> (passed, detail) registered
in PROPERTIES; the suite runs each with a fixed per-property seed so a
report is reproducible run to run.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace

from . import estimator, flow
from .config import ExperimentConfig
from .counting import (CountingQM, estimate_defect, homogenize_oracle,
                       homogenized)
from .surface import (Scenario, _segment_hits_hole, crossing_word,
                      near_cut_line, segment_crossings)
from .words import Word

_GENS = (1, -1, 2, -2)


def random_word(rng: random.Random, max_len: int = 12) -> Word:
    return Word(rng.choice(_GENS) for _ in range(rng.randrange(max_len + 1)))


def _small_scenario(config: ExperimentConfig) -> Scenario:
    n = config.N_list[0] if config.N_list else 1
    return config.build(n)


# -- word algebra ---------------------------------------------------------------


def prop_reduce_idempotent(rng, config):
    for _ in range(400):
        raw = [rng.choice(_GENS) for _ in range(rng.randrange(20))]
        w = Word(raw)
        if Word(w.letters) != w or len(w) > len(raw):
            return False, f"reduction failed on {raw}"
    return True, "400 random sequences"


def prop_word_algebra(rng, config):
    for _ in range(300):
        u, v, w = (random_word(rng) for _ in range(3))
        if (u * v) * w != u * (v * w):
            return False, f"associativity failed: {u} {v} {w}"
        if u * Word() != u or Word() * u != u:
            return False, f"identity failed: {u}"
        if u * u.inverse() != Word():
            return False, f"inverse failed: {u}"
        j, k = rng.randrange(-8, 9), rng.randrange(-8, 9)
        if u ** (j + k) != (u ** j) * (u ** k):
            return False, f"power addition failed: {u} {j} {k}"
    return True, "300 random triples"


def prop_cyclic_reduce_roundtrip(rng, config):
    for _ in range(300):
        u = random_word(rng)
        core, conj = u.cyclic_reduce()
        if conj * core * conj.inverse() != u:
            return False, f"roundtrip failed on {u}"
        if core and core.letters[0] == -core.letters[-1] and len(core) >= 2:
            return False, f"core not cyclically reduced: {core}"
    return True, "300 random words"


# -- counting quasimorphism ------------------------------------------------------


def prop_qm_identities(rng, config):
    q = CountingQM.from_text(config.pattern)
    for _ in range(200):
        g = random_word(rng)
        u = random_word(rng)
        conj = homogenized(q, u * g * u.inverse())
        if conj != homogenized(q, g):
            return False, f"conjugation invariance failed: {g} by {u}"
        k = rng.randrange(-8, 9)
        if homogenized(q, g ** k) != k * homogenized(q, g):
            return False, f"homogeneity failed: {g}^{k}"
        if homogenized(q, g.inverse()) != -homogenized(q, g):
            return False, f"antisymmetry failed: {g}"
    return True, "200 random cases, exact"


def prop_qm_oracle(rng, config):
    q = CountingQM.from_text(config.pattern)
    demp = estimate_defect(q, 4)
    for k in (10, 100):
        for _ in range(40):
            g = random_word(rng, max_len=8)
            gap = abs(homogenized(q, g) - homogenize_oracle(q, g, k))
            if gap > demp / k + 1e-12:
                return False, f"oracle gap {gap} > {demp}/{k} at {g}"
    return True, f"defect bound {demp} holds at k=10,100"


# -- homotopy tracking -----------------------------------------------------------


def _winding_number(pts, center) -> int:
    """Signed winding of a closed polyline around a point, by ray casting."""
    winding = 0
    for (px, py), (qx, qy) in zip(pts, pts[1:]):
        if (py - center[1]) * (qy - center[1]) < 0:
            t = (center[1] - py) / (qy - py)
            if px + t * (qx - px) > center[0]:
                winding += 1 if qy > py else -1
    return winding


def random_null_homotopic_loop(rng, hole_halfwidth):
    """Closed plane polyline avoiding the lifted holes and winding around
    no lattice point, so its class on the surface is trivial (a loop around
    a lifted hole carries a peripheral class, not the identity).

    Returns the list of segments, or None after 400 rejected draws.
    """
    for _ in range(400):
        pts = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))]
        for _ in range(rng.randrange(2, 6)):
            pts.append((pts[-1][0] + rng.uniform(-1.5, 1.5),
                        pts[-1][1] + rng.uniform(-1.5, 1.5)))
        pts.append(pts[0])
        segs = list(zip(pts, pts[1:]))
        if any(_segment_hits_hole(a, b, hole_halfwidth) for a, b in segs):
            continue
        if any(near_cut_line(c) for p in pts for c in p):
            continue
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if any(_winding_number(pts, (lx, ly))
               for lx in range(math.floor(min(xs)), math.ceil(max(xs)) + 1)
               for ly in range(math.floor(min(ys)), math.ceil(max(ys)) + 1)):
            continue
        return segs
    return None


def prop_crossing_loops_reduce_to_identity(rng, config):
    hh = config.hole_halfwidth
    done = 0
    while done < 100:
        segs = random_null_homotopic_loop(rng, hh)
        if segs is None:
            return False, "could not generate loops"
        word = Word()
        for p, q in segs:
            word = word * crossing_word(p, q)
        if word != Word():
            return False, f"closed lift gave nontrivial word {word}"
        done += 1
    return True, "100 random closed lifts"


def prop_crossing_abelianization(rng, config):
    for _ in range(200):
        p = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        q = (p[0] + rng.uniform(-3, 3), p[1] + rng.uniform(-3, 3))
        if near_cut_line(q[0]) or near_cut_line(q[1]):
            continue
        events = segment_crossings(p, q)
        ab_a = sum(1 if letter == 1 else -1 for _, letter in events if abs(letter) == 1)
        ab_b = sum(1 if letter == 2 else -1 for _, letter in events if abs(letter) == 2)
        if ab_a != math.floor(q[0]) - math.floor(p[0]):
            return False, f"a-winding mismatch on {p}->{q}"
        if ab_b != math.floor(q[1]) - math.floor(p[1]):
            return False, f"b-winding mismatch on {p}->{q}"
    return True, "200 random segments"


# -- conservation ----------------------------------------------------------------


def prop_flux_zero(rng, config):
    scenario = _small_scenario(config)
    fa, fb = flow.flux_check(scenario)
    if abs(fa) > 1e-12 or abs(fb) > 1e-12:
        return False, f"total flux {(fa, fb)}"
    for c, (ca, cb) in flow.per_copy_flux(scenario).items():
        if abs(ca) > 1e-12 or abs(cb) > 1e-12:
            return False, f"copy {c} flux {(ca, cb)}"
    return True, "total and per-copy flux vanish"


def _safe_stencil_point(scenario, rng, margin):
    # center whose whole orbit keeps the stencil clear of profile kinks
    for _ in range(400):
        p = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        q = p
        ok = True
        for strip in reversed(scenario.strips):
            h = strip.transverse(q[0], q[1])
            for kink in (0.0, strip.smoothing, strip.width - strip.smoothing,
                         strip.width):
                if abs(h - kink) < margin:
                    ok = False
                    break
            if not ok:
                break
            q, _ = flow.apply_strip(strip, flow.strip_profile(strip),
                                    scenario.tau, q)
        if ok:
            return p
    return None


def prop_jacobian(rng, config):
    scenario = _small_scenario(config)
    eps = 1e-6
    tested = 0
    for _ in range(2000):
        if tested >= 100:
            break
        p = _safe_stencil_point(scenario, rng, margin=1e-4)
        if p is None:
            return False, "no safe stencil points found"
        stencil = []
        for dx, dy in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
            img, _ = flow.apply_composed(scenario, scenario.tau,
                                         (p[0] + dx, p[1] + dy))
            stencil.append(img)
        jxx = (stencil[0][0] - stencil[1][0]) / (2 * eps)
        jyx = (stencil[0][1] - stencil[1][1]) / (2 * eps)
        jxy = (stencil[2][0] - stencil[3][0]) / (2 * eps)
        jyy = (stencil[2][1] - stencil[3][1]) / (2 * eps)
        det = jxx * jyy - jxy * jyx
        if abs(det - 1.0) > 1e-8:
            return False, f"det {det} at {p}"
        tested += 1
    return True, f"{tested} stencil points, |det-1| <= 1e-8"


def prop_invertibility(rng, config):
    scenario = _small_scenario(config)
    for _ in range(200):
        p = (rng.uniform(0, 1), rng.uniform(0, 1))
        q, _ = flow.apply_composed(scenario, scenario.tau, p)
        back = flow.apply_composed_inverse(scenario, scenario.tau, q)
        if max(abs(back[0] - p[0]), abs(back[1] - p[1])) > 1e-12:
            return False, f"inverse failed at {p}"
    return True, "200 random points to 1e-12"


def prop_calabi_vs_hofer(rng, config):
    scenario = _small_scenario(config)
    bound = flow.hofer_upper_bound(scenario, scenario.tau,
                                   time_samples=4, space_samples=200)
    cal = flow.calabi(scenario, scenario.tau,
                      time_samples=4, space_samples=200)
    if abs(cal) > bound.numeric * (1 + 1e-9):
        return False, f"|calabi| {abs(cal)} exceeds bound {bound.numeric}"
    return True, f"|{cal:.3g}| <= {bound.numeric:.3g}"


def prop_rho_antisymmetry(rng, config):
    scenario = _small_scenario(config)
    flipped = replace(scenario, strips=tuple(
        replace(s, orientation=-s.orientation) for s in scenario.strips))
    q = CountingQM.from_text(config.pattern)
    est = estimator.rho_estimate(scenario, q, samples_per_strip=1500,
                                 seed=config.seed)
    est_flipped = estimator.rho_estimate(flipped, q, samples_per_strip=1500,
                                         seed=config.seed)
    tol = 2 * (est.stderr + est_flipped.stderr) + 1e-12
    if abs(est.value + est_flipped.value) > tol:
        return False, (f"rho {est.value:.4g} vs flipped "
                       f"{est_flipped.value:.4g}, tol {tol:.2g}")
    return True, f"{est.value:.4g} vs {est_flipped.value:.4g}"


PROPERTIES = {
    "word_reduce_idempotent": prop_reduce_idempotent,
    "word_algebra": prop_word_algebra,
    "word_cyclic_reduce": prop_cyclic_reduce_roundtrip,
    "qm_identities": prop_qm_identities,
    "qm_oracle_agreement": prop_qm_oracle,
    "crossing_loops_identity": prop_crossing_loops_reduce_to_identity,
    "crossing_abelianization": prop_crossing_abelianization,
    "flux_zero": prop_flux_zero,
    "jacobian_area_preserving": prop_jacobian,
    "invertibility": prop_invertibility,
    "calabi_le_hofer": prop_calabi_vs_hofer,
    "rho_antisymmetry": prop_rho_antisymmetry,
}


def run_property_suite(config: ExperimentConfig, name_filter: str | None = None):
    """Run the registered properties with fixed seeds; returns result rows."""
    results = []
    for index, (name, fn) in enumerate(sorted(PROPERTIES.items())):
        if name_filter and name_filter not in name:
            continue
        rng = random.Random(10_000 + index)
        try:
            passed, detail = fn(rng, config)
        except Exception as exc:  # property crash counts as failure
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
