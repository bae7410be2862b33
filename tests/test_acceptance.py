"""Acceptance gate: the performance and correctness bars for this package.

Each test prints one PASS/FAIL line.  Rates, orderings and tolerances are
asserted at the stated values on fixed seeds; every tree search backing a
correctness claim runs with per-iteration invariant auditing enabled, and
the timing claims come from separate unaudited replicas of the same
instances so the clock measures the search alone.
"""

import itertools
import math
import time

import numpy as np
import pytest

from treepursuit.astar import AompConfig, aomp_recover, hybrid_recover
from treepursuit.baselines import omp_recover
from treepursuit.experiments import make_solver, run_batch, fit_rho_star, phase_transition
from treepursuit.haar import haar2d, haar2d_inverse, sparsify_blocks
from treepursuit.imaging import recover_image, synthetic_image
from treepursuit.rip import (
    RicTable,
    lemma2_sandwich,
    lemma3_cross,
    nc_lower_bound,
    ric_bruteforce,
    ric_table,
    theorem2_bound,
    theorem2_check,
    theorem3_check,
)
from treepursuit.siggen import derive_seed, gen_matrix, gen_problem

pytestmark = pytest.mark.slow

BASE_SEED = 20260815
DESK_N, DESK_M, TRIALS = 256, 100, 50


def report(num, label, ok, detail):
    print("[criterion %2d] %s: %s (%s)" % (num, "PASS" if ok else "FAIL", label, detail))
    assert ok, "%s: %s" % (label, detail)


def desk_solver(name, **params):
    params.setdefault("audit", True)
    return make_solver(name, **params)


@pytest.fixture(scope="session")
def k30_batches():
    solvers = {
        "amul-aompe": desk_solver("aomp"),
        "mul-aompe": desk_solver("aomp", cost_model="mul"),
        "mul-aompk": desk_solver("aomp", cost_model="mul", termination="sparsity"),
        "omp": make_solver("omp"),
        "sp": make_solver("sp"),
    }
    return {
        label: run_batch(s, DESK_N, DESK_M, 30, "gaussian", TRIALS, BASE_SEED)
        for label, s in solvers.items()
    }


@pytest.fixture(scope="session")
def k30_timing():
    # unaudited replicas of the same instances, timing only
    solvers = {
        "amul-aompe": make_solver("aomp"),
        "mul-aompe": make_solver("aomp", cost_model="mul"),
        "mul-aompk": make_solver("aomp", cost_model="mul", termination="sparsity"),
    }
    return {
        label: run_batch(s, DESK_N, DESK_M, 30, "gaussian", TRIALS, BASE_SEED)
        for label, s in solvers.items()
    }


@pytest.fixture(scope="session")
def hybrid_runs():
    """Per-instance plain and two-stage runs at K=25, audited and timed."""
    plain_cfg = AompConfig.for_problem(DESK_M, DESK_N, 25)
    assert plain_cfg.kmax == 70
    audited = AompConfig.for_problem(DESK_M, DESK_N, 25, audit=True)
    rows = []
    for t in range(TRIALS):
        seed = derive_seed(BASE_SEED, "trial", t)
        ens, inst = gen_problem(DESK_M, DESK_N, 25, "gaussian", seed)
        plain_checked = aomp_recover(ens.phi, inst.y, audited)
        staged_checked = hybrid_recover(ens.phi, inst.y, audited, 25)
        t0 = time.perf_counter()
        aomp_recover(ens.phi, inst.y, plain_cfg)
        t_plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        hybrid_recover(ens.phi, inst.y, plain_cfg, 25)
        t_staged = time.perf_counter() - t0
        rows.append(
            {
                "same": sorted(plain_checked.support) == sorted(staged_checked.support),
                "plain_ms": t_plain * 1e3,
                "staged_ms": t_staged * 1e3,
            }
        )
    return rows


def test_criterion_01_single_path_search_reduces_to_omp():
    # 200 instances, N=64, M=32, K in 2..8, all value ensembles; the
    # I=B=P=1 sparsity-terminated search must match OMP atom for atom
    t0 = time.perf_counter()
    cases = list(itertools.product(range(2, 9), ["gaussian", "uniform", "cars"]))
    mismatches = 0
    total = 0
    while total < 200:
        k, ensemble = cases[total % len(cases)]
        seed = derive_seed(7, "reduction", total)
        ens, inst = gen_problem(32, 64, k, ensemble, seed)
        cfg = AompConfig.sparsity_based(
            k, initial_paths=1, branch=1, max_paths=1, audit=True
        )
        mine = aomp_recover(ens.phi, inst.y, cfg)
        ref = omp_recover(ens.phi, inst.y, max_iter=k)
        mismatches += int(list(mine.support) != list(ref.support))
        total += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "single-path reduction to greedy pursuit",
        mismatches == 0 and elapsed < 60.0,
        "%d mismatches / %d instances, %.1fs" % (mismatches, total, elapsed),
    )


def test_criterion_02_recovery_rate_ordering(k30_batches):
    easy = run_batch(desk_solver("aomp"), DESK_N, DESK_M, 10, "gaussian", TRIALS, BASE_SEED)
    r_amul = k30_batches["amul-aompe"].rate
    r_omp = k30_batches["omp"].rate
    r_sp = k30_batches["sp"].rate
    ok = easy.rate >= 0.98 and r_amul > r_omp and r_amul > r_sp
    report(
        2,
        "adaptive-cost search dominates greedy baselines",
        ok,
        "K=10 rate %.3f; K=30 amul %.3f > omp %.3f, sp %.3f"
        % (easy.rate, r_amul, r_omp, r_sp),
    )


def test_criterion_03_residue_termination_at_least_as_accurate():
    mul_e = run_batch(
        desk_solver("aomp", cost_model="mul", kmax=55, alpha_mul=0.9),
        DESK_N, DESK_M, 35, "gaussian", TRIALS, BASE_SEED,
    )
    mul_k = run_batch(
        desk_solver("aomp", cost_model="mul", termination="sparsity", alpha_mul=0.8),
        DESK_N, DESK_M, 35, "gaussian", TRIALS, BASE_SEED,
    )
    ok = mul_e.rate >= mul_k.rate
    report(
        3,
        "residue termination recovers at least as often",
        ok,
        "K=35 rate %.3f (residue) vs %.3f (sparsity)" % (mul_e.rate, mul_k.rate),
    )


def test_criterion_04_speed_ordering_between_variants(k30_timing):
    t_amul = k30_timing["amul-aompe"].mean_time_ms
    t_mul_e = k30_timing["mul-aompe"].mean_time_ms
    t_mul_k = k30_timing["mul-aompk"].mean_time_ms
    ok = t_mul_e >= 1.1 * t_amul and t_mul_k >= 1.1 * t_mul_e
    report(
        4,
        "adaptive cost fastest, sparsity termination slowest",
        ok,
        "K=30 mean ms: amul %.1f, mul-residue %.1f, mul-sparsity %.1f"
        % (t_amul, t_mul_e, t_mul_k),
    )


def test_criterion_05_two_stage_matches_plain_and_is_faster(hybrid_runs):
    same_rate = np.mean([row["same"] for row in hybrid_runs])
    t_plain = np.mean([row["plain_ms"] for row in hybrid_runs])
    t_staged = np.mean([row["staged_ms"] for row in hybrid_runs])
    ok = same_rate >= 0.98 and t_staged < t_plain
    report(
        5,
        "two-stage startup keeps the answer and saves time",
        ok,
        "identical supports %.0f%%, mean ms %.2f vs %.2f"
        % (100 * same_rate, t_staged, t_plain),
    )


def test_criterion_06_isometry_constant_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    mono_ok = True
    sandwich_ok = True
    rng = np.random.default_rng(606)
    for s in range(10):
        phi = gen_matrix(8, 12, derive_seed(5, "ric", s), entry_std=1 / math.sqrt(8)).phi
        # independent closed form for pairs: eigenvalues of each 2x2 Gram
        best = 0.0
        for i in range(12):
            for j in range(i + 1, 12):
                a = float(phi[:, i] @ phi[:, i])
                b = float(phi[:, j] @ phi[:, j])
                c = float(phi[:, i] @ phi[:, j])
                disc = math.sqrt(((a - b) / 2.0) ** 2 + c * c)
                best = max(best, (a + b) / 2.0 + disc - 1.0, 1.0 - ((a + b) / 2.0 - disc))
        worst = max(worst, abs(ric_bruteforce(phi, 2) - best))
        table = ric_table(phi, 5)
        ds = [table.delta(l) for l in range(1, 6)]
        mono_ok = mono_ok and all(x <= y + 1e-12 for x, y in zip(ds, ds[1:]))
        d4 = table.delta(4)
        sandwich_ok = sandwich_ok and lemma2_sandwich(phi, [0, 3, 7, 9], d4, rng, vectors=100)
        sandwich_ok = sandwich_ok and lemma3_cross(phi, [0, 3], [7, 9], d4, rng, vectors=100)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and mono_ok and sandwich_ok and elapsed < 60.0
    report(
        6,
        "brute-force isometry constants",
        ok,
        "pairwise gap %.1e, monotone %s, sandwiches %s, %.1fs"
        % (worst, mono_ok, sandwich_ok, elapsed),
    )


def test_criterion_07_condition_checker_arithmetic():
    valid, bound = nc_lower_bound(49, 4)
    exact_nc = valid and bound == 48.0
    exact_t2 = theorem2_bound(2, 2) == 0.5
    rng = np.random.default_rng(707)
    agree = True
    for _ in range(50):
        k = int(rng.integers(1, 9))
        b = int(rng.integers(1, 5))
        table = RicTable(m=8, n=24, deltas={k + b: float(rng.uniform(0, 1))})
        fresh = theorem3_check(table, k, b, 0, 0, kmax=k)
        base = theorem2_check(table, k, b)
        agree = agree and fresh.passes == base.passes and fresh.bound == base.bound
    ok = exact_nc and exact_t2 and agree
    report(
        7,
        "condition-checker arithmetic",
        ok,
        "nc(49,4)=%s valid=%s, bound(2,2)=%s, fresh-path agreement %s"
        % (bound, valid, theorem2_bound(2, 2), agree),
    )


def test_criterion_08_block_transform_pipeline():
    rng = np.random.default_rng(808)
    worst_rt = 0.0
    worst_pv = 0.0
    for _ in range(1000):
        block = rng.uniform(0.0, 255.0, size=(8, 8))
        coeffs = haar2d(block)
        worst_rt = max(worst_rt, float(np.max(np.abs(haar2d_inverse(coeffs) - block))))
        worst_pv = max(
            worst_pv,
            abs(float(np.sum(coeffs**2) - np.sum(block**2))) / float(np.sum(block**2)),
        )
    block = rng.uniform(0.0, 255.0, size=(8, 8))
    truncated = sparsify_blocks(block, 3)
    got = float(np.sum((truncated - block) ** 2))
    best = np.inf
    coeffs = haar2d(block)
    for subset in itertools.combinations(range(64), 3):
        kept = np.zeros(64)
        kept[list(subset)] = coeffs[list(subset)]
        best = min(best, float(np.sum((haar2d_inverse(kept) - block) ** 2)))
    ok = worst_rt < 1e-12 and worst_pv < 1e-12 and got <= best + 1e-9
    report(
        8,
        "block transform round trip and truncation optimality",
        ok,
        "round-trip %.1e, energy gap %.1e, truncation within %.1e of best"
        % (worst_rt, worst_pv, got - best),
    )


def test_criterion_09_image_recovery_margin():
    gaps = []
    for seed in (1, 2, 3):
        image = synthetic_image(seed=seed)
        tree = recover_image(
            image, 12, 32,
            desk_solver("aomp", branch=2, kmax=20, alpha_amul=0.85),
            seed,
        )
        greedy = recover_image(image, 12, 32, make_solver("omp"), seed)
        gaps.append(tree.psnr_db - greedy.psnr_db)
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 3.0
    report(
        9,
        "image recovery beats greedy by 3 dB",
        ok,
        "mean PSNR gap %.2f dB (per seed: %s)"
        % (mean_gap, ", ".join("%.1f" % g for g in gaps)),
    )


def test_criterion_10_invariants_and_determinism(k30_batches, hybrid_runs):
    # the audited searches in criteria 1-5 raise on any violation of the
    # support-uniqueness, path-cap, disjointness or stale-cost invariants,
    # so reaching this point means zero violations; determinism is checked
    # by replaying a full batch and yardstick instances
    audited_failures = sum(
        1 for batch in k30_batches.values() for r in batch.records if r.failed
    )
    replay_a = run_batch(desk_solver("aomp"), DESK_N, DESK_M, 30, "gaussian", 10, BASE_SEED)
    replay_b = run_batch(desk_solver("aomp"), DESK_N, DESK_M, 30, "gaussian", 10, BASE_SEED)
    batch_same = [r.rel_err for r in replay_a.records] == [
        r.rel_err for r in replay_b.records
    ]
    ens, inst = gen_problem(DESK_M, DESK_N, 30, "gaussian", derive_seed(BASE_SEED, "det", 0))
    cfg = AompConfig(kmax=55, audit=True)
    one = aomp_recover(ens.phi, inst.y, cfg).to_dict(include_times=False)
    two = aomp_recover(ens.phi, inst.y, cfg).to_dict(include_times=False)
    ok = audited_failures == 0 and batch_same and one == two
    report(
        10,
        "audited invariants and replay determinism",
        ok,
        "audit failures %d, batch replay %s, instance replay %s"
        % (audited_failures, batch_same, one == two),
    )


def test_criterion_11_phase_transition_harness():
    t0 = time.perf_counter()
    star, censored = fit_rho_star(
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [30, 30, 30, 30, 0, 0], [30] * 6
    )
    step_ok = censored is None and 0.4 <= star <= 0.5
    rhos = [0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75]
    curve_tree = phase_transition(desk_solver("aomp"), 64, [0.4], rhos, 50, 31415)
    curve_greedy = phase_transition(make_solver("omp"), 64, [0.4], rhos, 50, 31415)
    s_tree = curve_tree.points[0].rho_star
    s_greedy = curve_greedy.points[0].rho_star
    elapsed = time.perf_counter() - t0
    ok = (
        step_ok
        and s_tree is not None
        and s_greedy is not None
        and s_tree >= s_greedy
        and elapsed < 3600.0
    )
    report(
        11,
        "phase-transition harness ordering",
        ok,
        "step fit %.3f, rho* %.3f (search) vs %.3f (greedy), %.0fs"
        % (star, s_tree if s_tree else -1, s_greedy if s_greedy else -1, elapsed),
    )
