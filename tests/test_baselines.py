"""Greedy baselines against independent step-by-step replays.

Each oracle below re-derives the algorithm from its defining rules using
dense numpy least squares only, so agreement is meaningful: the library
code paths (incremental QR, shared selection helpers) never appear here.
"""

import hashlib

import numpy as np
import pytest

from treepursuit import baselines, linalg
from treepursuit.baselines import (
    fbp_recover,
    iht_recover,
    mmp_df_recover,
    omp_recover,
    sp_recover,
)
from treepursuit.results import (
    REASON_DIVERGED,
    REASON_MAX_ITER,
    REASON_RESIDUE,
    REASON_STALLED,
    SettingsError,
)
from treepursuit.siggen import derive_seed, gen_problem


def lstsq_fit(phi, y, support):
    support = list(support)
    z, *_ = np.linalg.lstsq(phi[:, support], y, rcond=None)
    return z, y - phi[:, support] @ z


def pick_max_abs(scores, banned=()):
    scores = np.asarray(scores, dtype=float).copy()
    scores[list(banned)] = -np.inf
    return int(np.argmax(scores))  # argmax takes the lowest index on ties


def omp_replay(phi, y, max_iter, epsilon=1e-6):
    support = []
    r = y.copy()
    threshold = epsilon * np.linalg.norm(y)
    while len(support) < max_iter and np.linalg.norm(r) > threshold:
        j = pick_max_abs(np.abs(phi.T @ r), banned=support)
        support.append(j)
        _, r = lstsq_fit(phi, y, support)
    return support


def test_omp_matches_replay():
    for t in range(30):
        seed = derive_seed(3, "omp", t)
        ens, inst = gen_problem(20, 40, 4 + t % 5, "gaussian", seed)
        out = omp_recover(ens.phi, inst.y, max_iter=12)
        ref = omp_replay(ens.phi, inst.y, 12)
        assert list(out.support) == ref


def test_omp_exact_on_easy_instance():
    ens, inst = gen_problem(32, 64, 5, "gaussian", 9)
    out = omp_recover(ens.phi, inst.y)
    assert out.reason == REASON_RESIDUE
    assert sorted(out.support) == list(inst.support)
    assert np.linalg.norm(inst.x - out.xhat) < 1e-8


def test_omp_default_cap_is_measurement_count():
    ens, inst = gen_problem(12, 40, 10, "gaussian", 4)
    out = omp_recover(ens.phi, inst.y, epsilon=0.0)
    assert len(out.support) <= 12
    assert out.reason in (REASON_MAX_ITER, REASON_STALLED)
    with pytest.raises(ValueError):
        omp_recover(ens.phi, inst.y, max_iter=13)
    with pytest.raises(ValueError):
        omp_recover(ens.phi, inst.y, max_iter=0)


def test_omp_stalls_when_every_atom_is_taken():
    # a tall matrix: max_iter may exceed N, but only N atoms exist
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    out = omp_recover(phi, y, max_iter=10)
    assert out.reason == REASON_STALLED
    assert sorted(out.support) == [0, 1, 2]
    assert out.iterations == 3


def test_epsilon_that_can_never_be_met_is_rejected():
    ens, inst = gen_problem(20, 40, 4, "gaussian", 1)
    for epsilon in (-1.0, float("nan")):
        for solve in (omp_recover, fbp_recover, lambda phi, y, **kw: mmp_df_recover(phi, y, 4, **kw)):
            with pytest.raises(ValueError, match="epsilon"):
                solve(ens.phi, inst.y, epsilon=epsilon)
    omp_recover(ens.phi, inst.y, epsilon=0.0)  # a zero target is allowed


def test_omp_zero_signal():
    ens, _ = gen_problem(10, 20, 2, "gaussian", 0)
    out = omp_recover(ens.phi, np.zeros(10))
    assert out.support == () and out.reason == REASON_RESIDUE


def sp_replay(phi, y, k, max_iter=100):
    n = phi.shape[1]
    # initial support: k largest correlations with y, ties by lower index
    corr = np.abs(phi.T @ y)
    support = list(np.lexsort((np.arange(n), -corr))[:k])
    _, r = lstsq_fit(phi, y, support)
    best = sorted(support)
    best_res = np.linalg.norm(r)
    for _ in range(max_iter):
        corr = np.abs(phi.T @ r)
        corr[support] = -np.inf
        extra = list(np.lexsort((np.arange(n), -corr))[:k])
        union = sorted(set(support) | set(extra))
        z, _ = lstsq_fit(phi, y, union)
        order = np.lexsort((union, -np.abs(z)))
        support = sorted(int(union[i]) for i in order[:k])
        _, r = lstsq_fit(phi, y, support)
        res = np.linalg.norm(r)
        if res >= best_res - 1e-15 * max(1.0, best_res):
            break
        best, best_res = support, res
    return best


def test_sp_matches_replay():
    for t in range(20):
        seed = derive_seed(5, "sp", t)
        ens, inst = gen_problem(24, 48, 6, "gaussian", seed)
        out = sp_recover(ens.phi, inst.y, 6)
        ref = sp_replay(ens.phi, inst.y, 6)
        assert sorted(out.support) == ref


def test_sp_projects_no_support_twice(monkeypatch):
    # the residue falls strictly every round, so a pruned support equal to
    # the current one ends the run without being projected again; with
    # every column twice, twins dropped from a union leave it at k atoms,
    # which SP keeps with the projection it already has.  Every projection
    # of SP factors through the least-squares kernel.
    projected = []
    real = baselines._project

    def recorded(problem, support):
        projected.append(tuple(support))
        return real(problem, support)

    monkeypatch.setattr(baselines, "_project", recorded)
    instances = []
    for t in range(20):
        ens, inst = gen_problem(24, 48, 6, "gaussian", derive_seed(5, "sp", t))
        instances.append((ens.phi, inst.y, 6))
    ens, inst = gen_problem(20, 30, 4, "gaussian", 3)
    instances.append((np.hstack([ens.phi, ens.phi]), inst.y, 4))
    for phi, y, k in instances:
        projected.clear()
        sp_recover(phi, y, k)
        assert projected
        assert len(projected) == len(set(projected))


def test_sp_and_fbp_loops_run_no_checked_kernel(monkeypatch):
    # the problem is checked and prepared once per solve; SP reaches the
    # checked correlations and top_indices only for its first selection,
    # and neither solver reaches the checked project
    calls = {}
    for module, name in ((baselines, "correlations"), (baselines, "top_indices"),
                         (linalg, "project")):

        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    ens, inst = gen_problem(40, 80, 8, "gaussian", 5)
    assert sp_recover(ens.phi, inst.y, 8).iterations > 1
    assert calls == {"correlations": 1, "top_indices": 1}
    calls.clear()
    assert fbp_recover(ens.phi, inst.y).iterations > 1
    assert calls == {}


def test_each_factorization_drops_one_dependent_atom(monkeypatch):
    # with every column twice, a selection holding d later twins is
    # factored d + 1 times: each factorization drops the first dependent
    # atom it names, since the Householder step of a dependent column
    # takes a row and the diagonal of R past it measures no distance
    drops = []  # per selection of SP or FBP: [atoms dropped, factorizations]
    selecting = []
    real_kernel, real_select = baselines._project, baselines._project_independent

    def kernel(*args):
        if selecting:
            drops[-1][1] += 1
        return real_kernel(*args)

    def select(problem, support):
        drops.append([0, 0])
        selecting.append(True)
        try:
            kept, z, r = real_select(problem, support)
        finally:
            selecting.pop()
        drops[-1][0] = len(support) - len(kept)
        return kept, z, r

    monkeypatch.setattr(baselines, "_project", kernel)
    monkeypatch.setattr(baselines, "_project_independent", select)
    ens, inst = gen_problem(20, 30, 4, "gaussian", 3)
    phi = np.hstack([ens.phi, ens.phi])
    for solve in (lambda: sp_recover(phi, inst.y, 4), lambda: fbp_recover(phi, inst.y)):
        drops.clear()
        assert solve().reason == REASON_RESIDUE
        assert all(count == dropped + 1 for dropped, count in drops), drops
        assert max(dropped for dropped, _ in drops) >= 2, drops


def test_sp_exact_recovery_and_preconditions():
    ens, inst = gen_problem(32, 64, 6, "gaussian", 14)
    out = sp_recover(ens.phi, inst.y, 6)
    assert out.reason == REASON_RESIDUE
    assert sorted(out.support) == list(inst.support)
    with pytest.raises(ValueError):
        sp_recover(ens.phi, inst.y, 17)  # k must stay within M/2
    with pytest.raises(ValueError):
        sp_recover(ens.phi, inst.y, 0)


def test_sp_stops_when_no_atom_is_left_outside_the_support():
    # 2k > N: the first support leaves too few atoms for a full candidate set
    ens, inst = gen_problem(4, 2, 2, "gaussian", 0)
    out = sp_recover(ens.phi, inst.y, 2)
    assert out.reason in (REASON_RESIDUE, REASON_STALLED)
    assert sorted(out.support) == [0, 1]
    ens, inst = gen_problem(24, 3, 2, "gaussian", 0)
    with pytest.raises(ValueError, match="min"):
        sp_recover(ens.phi, inst.y, 4)  # k must stay within N


def test_sp_stops_when_a_new_support_only_ties_the_residue():
    # y = e1 on columns u0 = (1, 1) and u1 = (2, -2): u1 correlates more,
    # so SP starts from {1}; the union's projection y = u0 / 2 + u1 / 4
    # prunes to {0}, a different support whose residue (1, -1) / 2 has the
    # same norm as {1}'s (1, 1) / 2, bit for bit, since the two differ only
    # in sign.  A tie is no decrease: SP stops on {1} after one iteration.
    phi = np.array([[1.0, 2.0], [1.0, -2.0]])
    out = sp_recover(phi, np.array([1.0, 0.0]), 1)
    assert (out.reason, out.iterations, tuple(out.support)) == (REASON_STALLED, 1, (1,))


def test_iht_recovers_with_well_scaled_matrix():
    # orthonormal rows keep the spectral norm at one, the classic setting
    # where the fixed unit step is contractive
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(80, 80)))
    phi = q[:, :40].T
    x = np.zeros(80)
    x[[3, 17, 44]] = [1.0, -0.5, 2.0]
    y = phi @ x
    out = iht_recover(phi, y, 3)
    assert out.reason == REASON_RESIDUE
    assert sorted(out.support) == [3, 17, 44]
    assert np.linalg.norm(x - out.xhat) < 1e-5


def test_iht_flags_divergence():
    # entries scaled 1/N make Phi^T Phi far from identity; with a huge
    # step the iterates blow up and the solver must say so
    ens, inst = gen_problem(20, 40, 4, "gaussian", 6)
    out = iht_recover(ens.phi, inst.y, 4, step=5e4, max_iter=50)
    assert out.reason == REASON_DIVERGED
    assert out.converged is False


def test_iht_flags_divergence_past_ten_times_the_signal():
    # phi = [[2]], y = 1: each sweep multiplies the residue by -3 (3, 9,
    # 27), so it first passes 10 ||y|| in the third sweep, not before
    out = iht_recover([[2.0]], [1.0], 1)
    assert (out.reason, out.iterations) == (REASON_DIVERGED, 3)


def test_iht_keeps_k_largest_each_step():
    # one manual iteration from zero: x1 = H_k(step * Phi^T y)
    ens, inst = gen_problem(16, 32, 3, "gaussian", 21)
    out = iht_recover(ens.phi, inst.y, 3, max_iter=1)
    g = ens.phi.T @ inst.y
    keep = np.argsort(-np.abs(g), kind="stable")[:3]
    expect = np.zeros(32)
    expect[keep] = g[keep]
    assert np.allclose(out.xhat, expect)


def fbp_replay(phi, y, alpha, beta, epsilon=1e-6, max_iter=None):
    m, n = phi.shape
    if max_iter is None:
        max_iter = m
    support = []
    r = y.copy()
    threshold = epsilon * np.linalg.norm(y)
    it = 0
    while np.linalg.norm(r) > threshold and it < max_iter:
        it += 1
        if len(support) + alpha > m:
            break
        corr = np.abs(phi.T @ r)
        corr[support] = -np.inf
        fwd = list(np.lexsort((np.arange(n), -corr))[:alpha])
        expanded = support + fwd
        z, _ = lstsq_fit(phi, y, expanded)
        order = np.lexsort((expanded, np.abs(z)))
        drop = {int(expanded[i]) for i in order[:beta]}
        support = [j for j in expanded if j not in drop]
        _, r = lstsq_fit(phi, y, support)
    return support


def test_fbp_matches_replay():
    # the tracked support is a set each round; orders may differ
    for t in range(15):
        seed = derive_seed(8, "fbp", t)
        ens, inst = gen_problem(24, 60, 5, "gaussian", seed)
        out = fbp_recover(ens.phi, inst.y, alpha=5, beta=4)
        ref = fbp_replay(ens.phi, inst.y, 5, 4)
        assert sorted(out.support) == sorted(ref)


def test_fbp_default_step_sizes():
    # alpha defaults to round(0.2 M) floored at 2, beta to alpha - 1
    ens, inst = gen_problem(30, 60, 5, "gaussian", 3)
    out = fbp_recover(ens.phi, inst.y)
    ref = fbp_replay(ens.phi, inst.y, 6, 5)
    assert sorted(out.support) == sorted(ref)
    small, small_inst = gen_problem(6, 20, 2, "gaussian", 3)
    out = fbp_recover(small.phi, small_inst.y)
    ref = fbp_replay(small.phi, small_inst.y, 2, 1)
    assert sorted(out.support) == sorted(ref)


def test_fbp_rejects_bad_steps():
    ens, inst = gen_problem(20, 40, 4, "gaussian", 1)
    with pytest.raises(ValueError):
        fbp_recover(ens.phi, inst.y, alpha=1)
    with pytest.raises(ValueError):
        fbp_recover(ens.phi, inst.y, alpha=4, beta=4)
    # a forward step wider than M cannot ever expand; the solver stalls
    out = fbp_recover(ens.phi, inst.y, alpha=21)
    assert out.reason == REASON_STALLED
    assert out.support == ()


def test_fbp_leaves_rounding_noise_out_of_the_support():
    # the last rounds of this instance pad the 30 true atoms with 8 whose
    # coefficients are at most 1e-12 max|z|
    ens, inst = gen_problem(100, 256, 30, "gaussian", 1011)
    out = fbp_recover(ens.phi, inst.y)
    assert out.reason == REASON_RESIDUE
    assert sorted(out.support) == sorted(inst.support)
    assert np.count_nonzero(out.xhat) == 30


def test_fbp_keeps_a_small_coefficient_above_its_noise_cut():
    # y = e0 + 1e-8 e1 on orthonormal atoms: the forward step takes atoms
    # 0, 1 and 2 (a zero correlation, first by index), the backward step
    # drops atom 2, whose coefficient is 0, and the residue is then 0.  A
    # coefficient of 1e-8 max|z| is signal, not rounding noise, so it stays
    out = fbp_recover(np.eye(4), np.array([1.0, 1e-8, 0.0, 0.0]), alpha=3, beta=1)
    assert out.reason == REASON_RESIDUE
    assert list(out.support) == [0, 1]
    assert out.xhat[1] == 1e-8


def test_fbp_takes_the_last_atoms_of_a_narrow_dictionary():
    # fewer than alpha atoms are left outside the support, so a round may
    # drop at most one fewer than it added, or the support stops growing
    phi = np.random.default_rng(0).normal(size=(10, 3))
    out = fbp_recover(phi, phi @ np.array([1.0, 2.0, 3.0]))
    assert (out.support, out.reason) == ((0, 1, 2), REASON_RESIDUE)
    out = fbp_recover(np.ones((3, 1)), np.ones(3))
    assert (out.support, out.reason) == ((0,), REASON_RESIDUE)


# SP and FBP on desk-size instances (M=100, N=256), recorded when `project`
# still rebuilt each support through the incremental factorization.  Keys
# are (ensemble, K, seed); SP pins (reason, iterations, support digest),
# FBP (reason, iterations, effective-support digest).  FBP's raw support
# may carry extra near-zero atoms that depend on rounding in the last
# bits, so only atoms above 1e-9 max|xhat| are pinned for it.
GOLDEN_SP_FBP = {
    ("gaussian", 30, 1): (("residue_met", 5, "1cebd48e5eb3"), ("residue_met", 30, "1cebd48e5eb3")),
    ("gaussian", 30, 2): (("residue_met", 6, "8e01d5bd2bc5"), ("residue_met", 30, "8e01d5bd2bc5")),
    ("gaussian", 30, 3): (("residue_met", 8, "ee131722ced8"), ("residue_met", 30, "ee131722ced8")),
    ("gaussian", 30, 6): (("residue_met", 5, "c5e54a485907"), ("residue_met", 30, "c5e54a485907")),
    ("gaussian", 30, 20): (("residue_met", 4, "1d8eb7c6fa59"), ("residue_met", 30, "1d8eb7c6fa59")),
    ("gaussian", 40, 1): (("stalled", 5, "20f5765c6529"), ("residue_met", 40, "5c4f1957dfa3")),
    ("gaussian", 40, 2): (("stalled", 3, "aea644579da2"), ("stalled", 82, "5be6debda992")),
    ("gaussian", 40, 3): (("stalled", 5, "6f0a5b5b5224"), ("residue_met", 40, "f81e0151cea9")),
    ("gaussian", 40, 6): (("stalled", 4, "6711e2198045"), ("residue_met", 46, "08605815340d")),
    ("gaussian", 40, 20): (("stalled", 3, "464ef172ef4d"), ("residue_met", 40, "af119eda31ec")),
    ("uniform", 30, 1): (("residue_met", 5, "1cebd48e5eb3"), ("residue_met", 30, "1cebd48e5eb3")),
    ("uniform", 30, 2): (("residue_met", 5, "8e01d5bd2bc5"), ("residue_met", 30, "8e01d5bd2bc5")),
    ("uniform", 30, 3): (("residue_met", 5, "ee131722ced8"), ("residue_met", 30, "ee131722ced8")),
    ("uniform", 30, 6): (("residue_met", 6, "c5e54a485907"), ("residue_met", 30, "c5e54a485907")),
    ("uniform", 30, 20): (("residue_met", 5, "1d8eb7c6fa59"), ("residue_met", 57, "1d8eb7c6fa59")),
    ("uniform", 40, 1): (("residue_met", 7, "5c4f1957dfa3"), ("residue_met", 40, "5c4f1957dfa3")),
    ("uniform", 40, 2): (("stalled", 7, "89412993c63a"), ("residue_met", 40, "a869590a62b6")),
    ("uniform", 40, 3): (("stalled", 3, "60bc84f84db3"), ("stalled", 82, "ccfc13f60519")),
    ("uniform", 40, 6): (("stalled", 4, "b4b20b51ee14"), ("residue_met", 40, "08605815340d")),
    ("uniform", 40, 20): (("residue_met", 12, "af119eda31ec"), ("residue_met", 40, "af119eda31ec")),
    ("cars", 30, 1): (("stalled", 4, "147b966d413d"), ("stalled", 82, "1ece75f7630c")),
    ("cars", 30, 2): (("stalled", 6, "3a9c1ea06d82"), ("stalled", 82, "f073583d3f76")),
    ("cars", 30, 3): (("stalled", 3, "cffa43774714"), ("residue_met", 30, "ee131722ced8")),
    ("cars", 30, 6): (("residue_met", 3, "c5e54a485907"), ("stalled", 82, "5f71c29acd36")),
    ("cars", 30, 20): (("residue_met", 4, "1d8eb7c6fa59"), ("residue_met", 32, "1d8eb7c6fa59")),
    ("cars", 40, 1): (("stalled", 6, "87f7d4dff49c"), ("stalled", 82, "0869a50e6c4a")),
    ("cars", 40, 2): (("stalled", 4, "078022361ffa"), ("stalled", 82, "e00f00ba8a98")),
    ("cars", 40, 3): (("stalled", 5, "47023f6028c6"), ("stalled", 82, "2aa03b598592")),
    ("cars", 40, 6): (("stalled", 2, "b430a0f492ae"), ("stalled", 82, "1a15093c85dc")),
    ("cars", 40, 20): (("stalled", 5, "808a86439e91"), ("stalled", 82, "28dbdc429c76")),
}


def support_digest(support):
    return hashlib.sha1(",".join(str(int(j)) for j in support).encode()).hexdigest()[:12]


def test_golden_sp_fbp():
    for (ensemble, k, seed), (sp_pin, fbp_pin) in GOLDEN_SP_FBP.items():
        ens, inst = gen_problem(100, 256, k, ensemble, seed)
        sp = sp_recover(ens.phi, inst.y, k)
        got = (sp.reason, sp.iterations, support_digest(sp.support))
        assert got == sp_pin, ("sp", ensemble, k, seed, sp.support)
        fbp = fbp_recover(ens.phi, inst.y)
        big = np.abs(fbp.xhat).max()
        effective = np.flatnonzero(np.abs(fbp.xhat) > 1e-9 * big)
        got = (fbp.reason, fbp.iterations, support_digest(effective))
        assert got == fbp_pin, ("fbp", ensemble, k, seed, effective.tolist())


def test_sp_and_fbp_go_on_past_twin_columns():
    # every column twice: the first selections hold twins, and `project`
    # names the later twin, which SP and FBP drop before going on
    ens, inst = gen_problem(20, 30, 4, "gaussian", 3)
    phi = np.hstack([ens.phi, ens.phi])
    assert sorted(omp_recover(phi, inst.y).support) == [2, 10, 15, 18]
    for out in (sp_recover(phi, inst.y, 4), fbp_recover(phi, inst.y)):
        assert out.reason == REASON_RESIDUE, out.solver
        assert sorted(out.support) == [2, 10, 15, 18], out.solver


def test_mmp_beats_single_path_when_first_choice_is_wrong():
    # depth-first multipath explores alternatives, so across many hard
    # instances it should recover at least as often as plain OMP
    wins = losses = 0
    for t in range(25):
        seed = derive_seed(13, "mmp", t)
        ens, inst = gen_problem(16, 64, 6, "gaussian", seed)
        omp = omp_recover(ens.phi, inst.y, max_iter=6)
        mmp = mmp_df_recover(ens.phi, inst.y, 6)
        omp_hit = sorted(omp.support) == list(inst.support)
        mmp_hit = sorted(mmp.support) == list(inst.support)
        wins += int(mmp_hit and not omp_hit)
        losses += int(omp_hit and not mmp_hit)
    assert wins > 0
    assert losses == 0


def test_mmp_single_branch_is_omp():
    for t in range(10):
        seed = derive_seed(14, "mmp1", t)
        ens, inst = gen_problem(20, 40, 5, "gaussian", seed)
        mmp = mmp_df_recover(ens.phi, inst.y, 5, branching=1, max_paths=1)
        omp = omp_recover(ens.phi, inst.y, max_iter=5)
        assert list(mmp.support) == list(omp.support)


def test_mmp_path_budget_respected():
    ens, inst = gen_problem(12, 48, 8, "gaussian", 2)
    out = mmp_df_recover(ens.phi, inst.y, 8, branching=3, max_paths=7)
    assert out.paths_opened <= 7
    assert len(out.support) <= 8


def test_all_baselines_report_final_residual():
    ens, inst = gen_problem(24, 48, 5, "gaussian", 33)
    for out in (
        omp_recover(ens.phi, inst.y),
        sp_recover(ens.phi, inst.y, 5),
        iht_recover(ens.phi, inst.y, 5),
        fbp_recover(ens.phi, inst.y),
        mmp_df_recover(ens.phi, inst.y, 5),
    ):
        recomputed = np.linalg.norm(inst.y - ens.phi @ out.xhat)
        assert out.residual_norm == pytest.approx(recomputed, abs=1e-10)


def test_all_baselines_reject_bad_input():
    ens, inst = gen_problem(24, 48, 5, "gaussian", 34)
    nan_y = inst.y.copy()
    nan_y[0] = np.nan
    inf_phi = ens.phi.copy()
    inf_phi[3, 7] = -np.inf
    solvers = (
        lambda phi, y: omp_recover(phi, y),
        lambda phi, y: sp_recover(phi, y, 5),
        lambda phi, y: iht_recover(phi, y, 5),
        lambda phi, y: fbp_recover(phi, y),
        lambda phi, y: mmp_df_recover(phi, y, 5),
    )
    for solve in solvers:
        with pytest.raises(ValueError, match="NaN"):
            solve(ens.phi, nan_y)
        with pytest.raises(ValueError, match="NaN or infinite"):
            solve(inf_phi, inst.y)
        with pytest.raises(ValueError, match="complex"):
            solve(ens.phi * (1 + 1j), inst.y)
        with pytest.raises(ValueError, match="complex"):
            solve(ens.phi, inst.y.astype(complex))
        with pytest.raises(ValueError, match="length M"):
            solve(ens.phi, inst.y[:-1])


@pytest.mark.parametrize("solve, limit", [
    (sp_recover, 6),  # min(M/2, N)
    (iht_recover, 30),  # N
    (mmp_df_recover, 12),  # M
])
@pytest.mark.parametrize("k", [2.5, True, np.float64(3.0), "3", 0, None])
def test_a_k_that_is_not_an_int_in_range_raises_at_solver_entry(solve, limit, k):
    # one rule for every solver's k: an int, not a bool, with 1 <= k <= the
    # solver's limit; a fractional k must not run as some other depth or
    # end in a numpy error, and True must not run as K = 1
    ens, inst = gen_problem(12, 30, 3, "gaussian", 2)
    k = limit + 1 if k is None else k
    with pytest.raises(SettingsError, match=r"^k must be an integer with 1 <= k <= .* = %d, got "
                       % limit):
        solve(ens.phi, inst.y, k)
    assert solve(ens.phi, inst.y, np.int64(limit)).support is not None


@pytest.mark.parametrize("solve, settings, message", [
    (omp_recover, {"max_iter": 0}, "max_iter"),
    (omp_recover, {"max_iter": 2.5}, "max_iter"),
    (lambda phi, y, **kw: sp_recover(phi, y, 4, **kw), {"max_iter": 0}, "max_iter"),
    (lambda phi, y, **kw: iht_recover(phi, y, 4, **kw), {"max_iter": 0}, "max_iter"),
    (lambda phi, y, **kw: iht_recover(phi, y, 4, **kw), {"step": float("nan")}, "step"),
    (lambda phi, y, **kw: iht_recover(phi, y, 4, **kw), {"step": 0.0}, "step"),
    (fbp_recover, {"max_iter": 0}, "max_iter"),
    (fbp_recover, {"alpha": 1}, "alpha > beta"),
    (fbp_recover, {"beta": 4}, "alpha > beta"),  # the default alpha at M = 20 is 4
    (fbp_recover, {"alpha": 2.7, "beta": 1.2}, "alpha"),
    (lambda phi, y, **kw: mmp_df_recover(phi, y, 4, **kw), {"branching": 0}, "branching"),
    (lambda phi, y, **kw: mmp_df_recover(phi, y, 4, **kw), {"max_paths": 0}, "max_paths"),
])
def test_settings_that_fit_no_instance_raise_at_solver_entry(solve, settings, message):
    # zero measurements too: a solver returns early on them, after the check
    ens, inst = gen_problem(20, 40, 4, "gaussian", 1)
    for y in (inst.y, np.zeros(20)):
        with pytest.raises(SettingsError, match=message):
            solve(ens.phi, y, **settings)
