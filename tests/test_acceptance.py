"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single pass/fail line
(bypassing capture so the line is always visible in the run log).
"""

import json
import math
import sys

import mpmath
import numpy as np
from scipy.optimize import brentq

from tgcs.cli import main
from tgcs.completeness import GeneralWeight, MLWeight, WrightWeight, moment_check
from tgcs.gseq import AuxFunction, Factorial, G1, MLGamma, WrightProduct
from tgcs.sampler import sample_counts
from tgcs.specfun import _kratzel, mittag_leffler, wright
from tgcs.states import (INFINITE, StateSpec, excitation_distribution,
                         normalization, overlap, random_state_spec)
from tgcs.statistics import (SmallLabelSign, correlation_g2, mandel_q, mandel_q2_closed_form,
                             mandel_q_closed_form, p_asymptotic,
                             q2_zero_crossing, q_large_label_approx,
                             q_small_label_sign)
from tgcs.zeros import orthogonal_pair, polynomial_roots


RESULTS: list[tuple[int, str, bool]] = []


def report(num: int, name: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    RESULTS.append((num, name, ok))
    # visible live under `pytest -s`; conftest echoes it in the summary otherwise
    print(f"[criterion {num:02d}] {name}: {status}", file=sys.__stdout__, flush=True)


def test_criterion_01_special_function_identities():
    ok = True
    for x in np.linspace(0.0, 30.0, 61):
        ok &= abs(mittag_leffler(1.0, 1.0, x) - math.exp(x)) <= 1e-13 * math.exp(x)
    for x in np.linspace(0.0, 12.0, 49):
        ok &= abs(mittag_leffler(2.0, 1.0, x * x) - math.cosh(x)) <= 1e-10 * math.cosh(x)
    with mpmath.workdps(60):
        for x in [0.1, 0.5, 1.0, 3.0, 7.0, 10.0]:
            ref = float(sum(mpmath.mpf(x) ** n
                            / (mpmath.factorial(n) * mpmath.gamma(n + 1))
                            for n in range(200)))
            ok &= abs(wright(1.0, 1.0, x) - ref) <= 1e-12 * ref
    for lam, mu in [(0.5, 0.5), (1.0, 1.0), (2.0, 0.3), (0.1, 4.0)]:
        ok &= abs(wright(lam, mu, 0.0) - 1.0 / math.gamma(mu)) <= 1e-14
    report(1, "special-function identities", ok)
    assert ok


def test_criterion_02_g1_normalization_identity():
    rng = np.random.default_rng(20240)
    ok = True
    for _ in range(5):
        nu = rng.uniform(0.0, 2.0)
        rho = rng.uniform(0.5, 2.0)
        w = rng.uniform(0.5, 2.0)
        for x in [0.5, 1.0, 5.0]:
            lhs = normalization(StateSpec(G1(nu, rho, w), INFINITE, math.sqrt(x)))
            rhs = rho * w ** ((nu + 1.0) / rho) * mittag_leffler(
                1.0 / rho, (nu + 1.0) / rho, w ** (1.0 / rho) * x)
            ok &= abs(lhs - rhs) <= 1e-10 * rhs
    report(2, "generalized normalization identity", ok)
    assert ok


def test_criterion_03_distribution_properties():
    ok = True
    rng = np.random.default_rng(31)
    for _ in range(100):
        spec = random_state_spec(rng)
        probs = excitation_distribution(spec).probs
        ok &= abs(float(np.sum(probs)) - 1.0) <= 1e-12

    # z = 0 collapses to the ground state exactly
    dist0 = excitation_distribution(StateSpec(MLGamma(0.5, 0.5), 8, 0.0))
    ok &= dist0.probs[0] == 1.0 and not np.any(dist0.probs[1:])

    # small-label decay: log-log slope of p(n) tends to 2n
    for seq, k, n in [(Factorial(), 6, 1), (MLGamma(0.5, 0.5), 8, 3),
                      (WrightProduct(0.5, 0.5), 5, 2)]:
        z1, z2 = 1e-3, 1e-4
        p1 = excitation_distribution(StateSpec(seq, k, z1)).probs[n]
        p2 = excitation_distribution(StateSpec(seq, k, z2)).probs[n]
        slope = (math.log(p1) - math.log(p2)) / (math.log(z1) - math.log(z2))
        ok &= abs(slope - 2 * n) <= 0.02 * 2 * n

    # large-label decay: p(0) falls off with slope -2k over |z| in [1e2, 1e3]
    for seq, k in [(Factorial(), 5), (MLGamma(0.5, 0.5), 8)]:
        z1, z2 = 1e2, 1e3
        p1 = excitation_distribution(StateSpec(seq, k, z1)).probs[0]
        p2 = excitation_distribution(StateSpec(seq, k, z2)).probs[0]
        slope = (math.log(p2) - math.log(p1)) / (math.log(z2) - math.log(z1))
        ok &= abs(slope + 2 * k) <= 0.02 * 2 * k
        ok &= excitation_distribution(StateSpec(seq, k, 1e3)).probs[k] > 0.99
    report(3, "distribution normalization and limit slopes", ok)
    assert ok


def test_criterion_04_mandel_q_cross_validation():
    ok = True
    rng = np.random.default_rng(44)
    n_checked = 0
    while n_checked < 100:
        spec = random_state_spec(rng, allow_infinite=False)
        if spec.u == 0 or spec.k < 1:
            continue
        n_checked += 1
        q_m = mandel_q(spec).q
        q_c = mandel_q_closed_form(spec.seq, int(spec.k), spec.u)
        # rel 1e-10, with an absolute floor where |Q| sits at the double-
        # precision cancellation level ~1e-16*(1+u) of both evaluation routes
        ok &= abs(q_m - q_c) <= 1e-10 * max(abs(q_c), 1e-3 * (1.0 + spec.u))

    for z in [0.3, 1.0, 1.7 + 0.3j, 4.0]:
        ok &= abs(mandel_q(StateSpec(Factorial(), INFINITE, z)).q) <= 1e-12

    for seq, k in [(MLGamma(0.5, 0.5), 5), (Factorial(), 4),
                   (MLGamma(2.0, 1.0), 3), (G1(0.5, 1.0, 1.0), 5)]:
        z = 100.0
        exact_corr = mandel_q(StateSpec(seq, k, z)).q + 1.0
        approx_corr = q_large_label_approx(seq, k, z) + 1.0
        ok &= abs(exact_corr - approx_corr) <= 1e-3 * exact_corr
    report(4, "Mandel-Q closed forms and limits", ok)
    assert ok


def test_criterion_05_sign_theory():
    ok = True
    grid = [0.1, 0.5, 1.0, 2.0, 4.0]
    k = 10
    for a in grid:
        for b in grid:
            seq = MLGamma(a, b)
            label = q_small_label_sign(seq, k)
            if label is SmallLabelSign.DEPENDS_ON_HIGHER_ORDER:
                continue  # boundary ratios carry no definite small-label sign
            q = mandel_q(StateSpec(seq, k, 1e-3)).q
            ok &= (q > 0) == (label is SmallLabelSign.POSITIVE)
    for lam in grid:
        for mu in grid:
            seq = WrightProduct(lam, mu)
            ok &= q_small_label_sign(seq, k) is SmallLabelSign.NEGATIVE
            ok &= mandel_q(StateSpec(seq, k, 1e-3)).q < 0

    # zero-crossing formula against a bisection oracle, 10 sequences
    rng = np.random.default_rng(55)
    found = 0
    while found < 10:
        seq = MLGamma(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0))
        zeta = q2_zero_crossing(seq)
        if zeta is None:
            continue
        found += 1
        ref = brentq(lambda s: mandel_q2_closed_form(seq, s * s),
                     zeta / 10, zeta * 10, xtol=1e-13)
        ok &= abs(zeta - ref) <= 1e-9

    # canonical sequence sits exactly on the ratio boundary: Q2 < 0 throughout
    ok &= q2_zero_crossing(Factorial()) is None
    for u in [0.01, 0.1, 1.0, 10.0]:
        ok &= mandel_q2_closed_form(Factorial(), u) < 0
    report(5, "small-label sign map and zero crossing", ok)
    assert ok


def test_criterion_06_g2_q_equivalence():
    ok = True
    rng = np.random.default_rng(66)
    n_checked = 0
    while n_checked < 200:
        spec = random_state_spec(rng, allow_infinite=False)
        if spec.u == 0 or spec.k < 2:
            continue
        n_checked += 1
        q = mandel_q(spec).q
        if abs(q) <= 1e-9:
            continue
        ok &= (correlation_g2(spec) > 1.0) == (q > 0.0)

    for seq in [Factorial(), MLGamma(0.7, 1.3)]:
        spec = StateSpec(seq, 1, 0.8)
        ok &= correlation_g2(spec) == 0.0
        ok &= mandel_q(spec).q < 0.0
    report(6, "correlation/Q classification equivalence", ok)
    assert ok


def test_criterion_07_completeness_moments():
    ok = True
    for a, b in [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0), (0.1, 0.1)]:
        ok &= moment_check(MLWeight(a, b, INFINITE), 6, 1e-8).passed
    for lam, mu in [(1.0, 1.0), (0.5, 0.5)]:
        ok &= moment_check(WrightWeight(lam, mu, INFINITE), 4, 1e-6).passed
    rng = np.random.default_rng(77)
    for _ in range(3):
        f = AuxFunction(nu=rng.uniform(0.0, 2.0), rho=rng.uniform(0.5, 2.0),
                        w=rng.uniform(0.5, 2.0))
        ok &= moment_check(GeneralWeight(f, f.matching_sequence(), INFINITE),
                           6, 1e-6).passed
    # int Z(u) u^(s-1) du = Gamma(s) Gamma(lam s + mu - lam), on a fixed t = ln u grid
    t = np.linspace(-60.0, 60.0, 12_001)
    for lam, mu in [(1.0, 1.0), (0.5, 0.5), (2.0, 1.0)]:
        log_z = _kratzel(lam, mu, t)
        for s in [1.0, 2.0, 3.0]:
            target = math.gamma(s) * math.gamma(lam * s + mu - lam)
            val = np.trapezoid(np.exp(log_z + s * t), t)
            ok &= abs(val - target) <= 1e-6 * target
    report(7, "completeness moment identities", ok)
    assert ok


def test_criterion_08_probability_asymptotics():
    ok = True
    u = 1.0

    norm = mittag_leffler(1.0, 1.0, u)
    seq = MLGamma(1.0, 1.0)

    def ml_gap(n):
        exact = math.exp(n * math.log(u) - seq.log_g(n)) / norm
        return abs(p_asymptotic(seq, n, u, norm) / exact - 1.0)

    ok &= ml_gap(40) <= 0.03
    gaps = [ml_gap(n) for n in range(20, 61, 5)]
    ok &= all(b < a for a, b in zip(gaps, gaps[1:]))

    wnorm = wright(1.0, 1.0, u)
    wseq = WrightProduct(1.0, 1.0)

    def w_gap(n):
        exact = math.exp(n * math.log(u) - wseq.log_g(n)) / wnorm
        return abs(p_asymptotic(wseq, n, u, wnorm)
                   / exact - 1.0)

    ok &= w_gap(30) <= 0.03
    wgaps = [w_gap(n) for n in range(20, 61, 5)]
    ok &= all(b < a for a, b in zip(wgaps, wgaps[1:]))
    report(8, "large-n probability asymptotics", ok)
    assert ok


def test_criterion_09_zeros_and_orthogonality():
    ok = True
    variants = [Factorial(), MLGamma(0.5, 0.5), WrightProduct(0.5, 0.5),
                G1(1.0, 1.5, 0.8)]
    for seq in variants:
        for k in [5, 10, 20]:
            rs = polynomial_roots(seq, k)
            ok &= len(rs.roots) == k
            ok &= float(np.max(rs.residuals)) <= 1e-9
            for root in rs.roots[:3]:
                a, b = orthogonal_pair(seq, k, root, 1.5 + 0.5j)
                ok &= abs(overlap(a, b)) <= 1e-9
        # Vieta: sum = -g(k)/g(k-1); |product| = g(k)/g(0); sign = (-1)^k
        k = 12
        rs = polynomial_roots(seq, k)
        sum_target = -math.exp(seq.log_g(k) - seq.log_g(k - 1))
        ok &= abs(complex(np.sum(rs.roots)) - sum_target) <= 1e-9 * abs(sum_target)
        log_prod = float(np.sum(np.log(np.abs(rs.roots))))
        log_prod_target = seq.log_g(k) - seq.log_g(0)
        ok &= abs(log_prod - log_prod_target) <= 1e-9 * max(1.0, abs(log_prod_target))
        phase = complex(np.prod(rs.roots / np.abs(rs.roots)))
        ok &= abs(phase - (-1.0) ** k) <= 1e-9
    report(9, "truncation-polynomial zeros and orthogonal pairs", ok)
    assert ok


def test_criterion_10_sampler_agreement():
    ok = True
    rng = np.random.default_rng(1010)
    n_checked = 0
    while n_checked < 10:
        spec = random_state_spec(rng, k_max=30, z_max=4.0, allow_infinite=False)
        if spec.u < 0.01 or spec.k < 2:
            continue
        n_checked += 1
        dist = excitation_distribution(spec)
        run = sample_counts(dist, 1_000_000, seed=9000 + n_checked)
        q_true = mandel_q(spec).q
        ok &= run.q_hat is not None and run.stderr_q is not None
        ok &= abs(run.q_hat - q_true) <= 4.0 * run.stderr_q
        # bit-identical rerun
        rerun = sample_counts(dist, 1_000_000, seed=9000 + n_checked)
        ok &= np.array_equal(run.counts, rerun.counts) and run.q_hat == rerun.q_hat
    report(10, "Monte-Carlo estimator agreement and determinism", ok)
    assert ok


FIGURE_CONFIGS = [
    ({"variant": "ml_gamma", "alpha": 0.5, "beta": 0.5}, 10),
    ({"variant": "ml_gamma", "alpha": 0.1, "beta": 0.1}, 20),
    ({"variant": "wright_product", "lam": 0.5, "mu": 0.5}, 10),
    ({"variant": "wright_product", "lam": 0.1, "mu": 0.1}, 20),
]


def test_criterion_11_figure_grid_anchors(tmp_path):
    import csv

    ok = True
    for i, (seq_json, k) in enumerate(FIGURE_CONFIGS):
        pcfg = tmp_path / f"probs{i}.json"
        pcfg.write_text(json.dumps({
            "sequence": seq_json, "k": k,
            "z_grid": {"min": 0.0, "max": 10.0, "points": 11}}))
        pout = tmp_path / f"probs{i}.csv"
        ok &= main(["probs", "--config", str(pcfg), "--out", str(pout)]) == 0
        with open(pout) as fh:
            rows = list(csv.DictReader(fh))
        by_z: dict[float, dict[int, float]] = {}
        for r in rows:
            by_z.setdefault(float(r["abs_z"]), {})[int(r["n"])] = float(r["p"])
        # unity at (n=0, z=0)
        ok &= by_z[0.0][0] == 1.0
        # n = k dominates the |z| = 10 column
        col = by_z[10.0]
        ok &= max(col, key=col.get) == k
        # each column is a normalized distribution
        for col in by_z.values():
            ok &= abs(sum(col.values()) - 1.0) <= 1e-12

        qcfg = tmp_path / f"mandel{i}.json"
        qcfg.write_text(json.dumps({
            "sequence": seq_json, "k": k,
            "z_grid": {"min": 0.01, "max": 10.0, "points": 13, "scale": "log"}}))
        qout = tmp_path / f"mandel{i}.csv"
        ok &= main(["mandel", "--config", str(qcfg), "--out", str(qout)]) == 0
        with open(qout) as fh:
            qrows = list(csv.DictReader(fh))
        q_small = float(qrows[0]["q"])
        q_large = float(qrows[-1]["q"])
        # stated sign regions: both ML grids have first-ratio < 2 (super-
        # poissonian near the origin); Wright grids are sub-poissonian
        if seq_json["variant"] == "ml_gamma":
            ok &= q_small > 0
        else:
            ok &= q_small < 0
        ok &= -1.0 < q_large < -0.9
    report(11, "figure-grid qualitative anchors", ok)
    assert ok
