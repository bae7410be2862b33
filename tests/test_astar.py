"""Tree-search engine: cost models, expansion mechanics, termination."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepursuit import astar, baselines, linalg
from treepursuit.astar import (
    AompConfig,
    AuditError,
    PathState,
    aomp_recover,
    expand,
    hybrid_recover,
    init_search,
    select_best_incomplete,
)
from treepursuit.baselines import mmp_df_recover, omp_recover
from treepursuit.linalg import IncrementalFactorization, check_problem
from treepursuit.results import REASON_ALL_COMPLETE, REASON_BUDGET, REASON_RESIDUE
from treepursuit.siggen import derive_seed, gen_problem
from treepursuit.trie import SearchTrie


def mul_cost(norms, kmax, alpha):
    return AompConfig(kmax=kmax, cost_model="mul", alpha_mul=alpha).path_cost(norms)


def amul_cost(norms, kmax, alpha):
    return AompConfig(kmax=kmax, cost_model="amul", alpha_amul=alpha).path_cost(norms)


# fixed-decay cost: alpha^(kmax-l) * ||r_l||, here 0.8^(10-8) * 1.0
def test_cost_mul_frozen_value():
    norms = (4.0,) + (1.0,) * 8
    assert mul_cost(norms, 10, 0.8) == pytest.approx(0.64, abs=1e-15)


# adaptive decay: (alpha * 0.4 / 0.5)^(6-4) * 0.4
def test_cost_amul_frozen_value():
    norms = (1.0, 0.9, 0.7, 0.5, 0.4)
    assert amul_cost(norms, 6, 0.97) == pytest.approx(0.2408704, abs=1e-12)


def test_cost_model_domains():
    with pytest.raises(ValueError, match=r"alpha_mul must lie in \(0, 1\)"):
        mul_cost((1.0, 0.5), 5, 1.0)
    with pytest.raises(ValueError, match=r"alpha_amul must lie in \(0, 1\]"):
        amul_cost((1.0, 0.5), 5, 1.5)
    assert amul_cost((1.0, 0.5), 5, 1.0) == 0.5 ** 5
    # a path that already annihilated the residue costs nothing
    assert amul_cost((1.0, 0.0, 0.0), 5, 0.97) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(["mul", "amul"]),
    kmax=st.integers(1, 70),
    alpha=st.floats(1e-3, 1.0, exclude_max=True),
    data=st.data(),
)
def test_path_cost_evaluates_the_cost_formulas_bit_for_bit(model, kmax, alpha, data):
    length = data.draw(st.integers(1, kmax))
    # a residue history never rises along a path
    norms = sorted(data.draw(st.lists(
        st.floats(0.0, 1e3, allow_subnormal=False), min_size=length + 1, max_size=length + 1,
    )), reverse=True)
    if data.draw(st.booleans()):
        norms[-2:] = [0.0, 0.0]  # a path that already met the signal exactly
    norms = tuple(norms)
    if model == "mul":
        got = mul_cost(norms, kmax, alpha)
        want = alpha ** (kmax - length) * norms[-1]
    else:
        got = amul_cost(norms, kmax, alpha)
        want = 0.0 if norms[-2] == 0.0 else (alpha * norms[-1] / norms[-2]) ** (kmax - length) * norms[-1]
    assert got.hex() == float(want).hex()


@st.composite
def cost_searches(draw):
    """(problem, config): a small Gaussian problem and a search under
    either cost model with kmax 1..3, so paths reach kmax within a few
    rounds."""
    m = draw(st.integers(3, 8))
    n = draw(st.integers(m, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    initial = draw(st.integers(1, 3))
    config = AompConfig(
        initial_paths=initial,
        branch=draw(st.integers(1, 3)),
        max_paths=draw(st.integers(initial, 6)),
        kmax=draw(st.integers(1, 3)),
        cost_model=draw(st.sampled_from(["mul", "amul"])),
        alpha_mul=draw(st.floats(0.05, 0.95)),
        alpha_amul=draw(st.floats(0.05, 1.0)),
    )
    return check_problem(rng.normal(size=(m, n)), rng.normal(size=m)), config


def _stored_paths(trie, best, config, rounds):
    """Every path `expand` builds in up to `rounds` rounds from `best` on:
    those it inserts into `trie` and the one that ends the search."""
    stored = []
    real_insert = trie.insert

    def insert(path):
        stored.append(path)
        real_insert(path)

    trie.insert = insert
    for _ in range(rounds):
        if best is None:
            break
        report = expand(trie, best, config)
        if report.terminated is not None:
            stored.append(report.terminated)
            break
        best = select_best_incomplete(trie)
    return stored


@settings(max_examples=150, deadline=None)
@given(cost_searches())
def test_every_stored_cost_is_the_path_cost_of_its_norms(case):
    # the seeds of init_search and the children of expand take their cost
    # from the round's terms; it is config.path_cost of their own residue
    # history bit for bit, under both models, for paths of length kmax
    # (exponent 0) and for the children of a path whose last residue is
    # zero (a hand-built history: the search stops at such a path)
    problem, config = case
    trie, done = init_search(problem, config)
    stored = trie.paths() + _stored_paths(trie, select_best_incomplete(trie), config, 30)
    if done is None:
        opened = [p for p in stored if p.length < config.kmax]
        if opened:
            p = opened[0]
            met = PathState(p.support, p.norms[:-1] + (0.0,), 0.0, p.fact, p.canonical)
            held = SearchTrie(config.kmax)
            held.insert(met)
            stored += _stored_paths(held, met, config, 1)
    for path in stored:
        assert 1 <= path.length <= config.kmax
        assert path.cost.hex() == config.path_cost(path.norms).hex()


def test_cost_prefers_shorter_when_equal_norms():
    # same residue norm, longer path -> smaller lookahead discount -> costlier
    short = mul_cost((1.0, 0.5), 10, 0.8)
    long = mul_cost((1.0, 0.8, 0.5), 10, 0.8)
    assert short < long


def test_config_validation():
    with pytest.raises(ValueError):
        AompConfig(initial_paths=0).validate()
    with pytest.raises(ValueError):
        AompConfig(max_paths=2, initial_paths=3).validate()
    with pytest.raises(ValueError):
        AompConfig(cost_model="sum").validate()
    with pytest.raises(ValueError):
        AompConfig(termination="never").validate()
    with pytest.raises(ValueError):
        AompConfig(cost_model="mul", alpha_mul=1.0).validate()
    for epsilon in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            AompConfig(epsilon=epsilon).validate()
    AompConfig().validate()


def test_config_round_trip_and_unknown_keys():
    cfg = AompConfig(branch=3, kmax=17, cost_model="mul")
    again = AompConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        AompConfig.from_dict({"brnch": 3})


def test_for_problem_kmax_and_sparsity_rules():
    # residue termination: kmax "auto" (the default) follows M/N, at least K + 1
    assert AompConfig.for_problem(100, 256, 25).kmax == 70
    assert AompConfig.for_problem(100, 256, 25, kmax="auto").kmax == 70
    assert AompConfig.for_problem(40, 64, 12).kmax == 32  # round(32.5), half to even
    assert AompConfig.for_problem(32, 64, 30).kmax == 31
    assert AompConfig.for_problem(20, 40, 20).kmax == 20  # capped at M
    assert AompConfig.for_problem(100, 256, 25, kmax=40).kmax == 40
    # sparsity termination: paths stop at K and the decay defaults to 0.8
    cfg = AompConfig.for_problem(100, 256, 25, termination="sparsity", cost_model="mul")
    assert (cfg.kmax, cfg.alpha_mul, cfg.cost_model) == (25, 0.8, "mul")
    assert cfg == AompConfig.sparsity_based(25, cost_model="mul")
    cfg = AompConfig.for_problem(100, 256, 25, termination="sparsity", alpha_mul=0.9)
    assert cfg.alpha_mul == 0.9
    with pytest.raises(ValueError, match="caps paths at K"):
        AompConfig.for_problem(100, 256, 25, termination="sparsity", kmax=30)
    for bad in ({"kmx": 9}, {"select_among_all": True}, {"alpha_amul": 1.5}):
        with pytest.raises(ValueError):
            AompConfig.for_problem(100, 256, 25, **bad)
    assert len(AompConfig.__dataclass_fields__) == 11


def test_sparsity_preset_floors_epsilon():
    cfg = AompConfig.sparsity_based(8, epsilon=0.0)
    assert cfg.kmax == 8
    assert cfg.termination == "sparsity"
    assert cfg.alpha_mul == 0.8
    assert cfg.effective_epsilon() == 1e-6


def test_single_path_search_equals_omp():
    # with one seed path, one branch and one slot the search degenerates to
    # plain orthogonal matching pursuit, selection for selection
    for t in range(30):
        seed = derive_seed(11, "red", t)
        k = 2 + t % 6
        ens, inst = gen_problem(24, 48, k, ["gaussian", "uniform", "cars"][t % 3], seed)
        cfg = AompConfig.sparsity_based(k, initial_paths=1, branch=1, max_paths=1)
        mine = aomp_recover(ens.phi, inst.y, cfg)
        ref = omp_recover(ens.phi, inst.y, max_iter=k)
        assert list(mine.support) == list(ref.support)


def test_exact_recovery_and_reason_on_easy_instances():
    hits = 0
    for seed in range(20):
        ens, inst = gen_problem(32, 64, 5, "gaussian", seed)
        out = aomp_recover(ens.phi, inst.y, AompConfig(kmax=12))
        rel = np.linalg.norm(inst.x - out.xhat) / np.linalg.norm(inst.x)
        if out.reason == REASON_RESIDUE:
            hits += 1
            assert rel < 1e-6
            assert out.residual_norm <= 1e-6 * np.linalg.norm(inst.y)
    assert hits >= 19


def test_reason_matches_residue_invariant():
    # reason must be residue_met exactly when the final residual clears the
    # effective threshold, whatever route ended the search
    for seed in range(15):
        ens, inst = gen_problem(16, 64, 10, "gaussian", seed)
        for cfg in (
            AompConfig(kmax=12, epsilon=1e-6),
            AompConfig.sparsity_based(10),
            AompConfig(kmax=12, max_iterations=3),
        ):
            out = aomp_recover(ens.phi, inst.y, cfg)
            met = out.residual_norm <= cfg.effective_epsilon() * np.linalg.norm(inst.y)
            assert (out.reason == REASON_RESIDUE) == met


def test_an_exact_zero_residue_meets_a_zero_epsilon():
    # orthogonal integer columns leave exact residues: the child {0, 1}
    # of the first expansion leaves 0.0, which meets epsilon = 0 and ends
    # the search at once
    phi = np.array([[2.0, 0, 0, 0], [0, 3.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    y = np.array([3.0, 2.0, 0.0, 0.0])
    out = aomp_recover(phi, y, AompConfig(kmax=4, epsilon=0.0))
    assert out.reason == REASON_RESIDUE and out.residual_norm == 0.0
    assert out.support == (0, 1) and out.iterations == 1


def test_budget_exhaustion_reported():
    ens, inst = gen_problem(16, 64, 10, "gaussian", 3)
    out = aomp_recover(ens.phi, inst.y, AompConfig(kmax=12, max_iterations=2))
    assert out.converged is False
    assert out.reason == REASON_BUDGET
    assert out.iterations == 2


def test_sparsity_termination_caps_path_length():
    ens, inst = gen_problem(20, 50, 4, "gaussian", 8)
    out = aomp_recover(ens.phi, inst.y, AompConfig.sparsity_based(4))
    assert len(out.support) <= 4
    hard = gen_problem(10, 60, 8, "gaussian", 5)
    out = aomp_recover(hard[0].phi, hard[1].y, AompConfig.sparsity_based(8))
    assert len(out.support) <= 8
    if out.reason != REASON_RESIDUE:
        assert out.reason == REASON_ALL_COMPLETE


def test_determinism_under_replay():
    ens, inst = gen_problem(24, 96, 12, "uniform", 101)
    cfg = AompConfig(kmax=18, audit=True)
    a = aomp_recover(ens.phi, inst.y, cfg)
    b = aomp_recover(ens.phi, inst.y, cfg)
    assert a.to_dict(include_times=False) == b.to_dict(include_times=False)
    assert a.iterations == b.iterations
    assert a.nodes_expanded == b.nodes_expanded
    assert a.paths_opened == b.paths_opened


def test_audit_mode_accepts_seeded_batch():
    # the audited invariants: live-path cap, distinct supports, fresh costs,
    # monotone residue histories, disjoint expansion candidates
    for seed in range(25):
        k = 4 + seed % 8
        ens, inst = gen_problem(20, 60, k, ["gaussian", "cars"][seed % 2], seed)
        cfg = AompConfig(kmax=16, max_paths=20, audit=True)
        aomp_recover(ens.phi, inst.y, cfg)  # raises AuditError on violation


def test_every_built_path_is_keyed_by_its_sorted_support(monkeypatch):
    # the live paths after an audited search, and the path that ended it,
    # carry the key they were built with
    tries, ends = [], []
    real_init, real_expand = astar.init_search, astar.expand

    def init_and_keep(problem, config):
        trie, done = real_init(problem, config)
        tries.append(trie)
        return trie, done

    def expand_and_keep(trie, best, config):
        report = real_expand(trie, best, config)
        ends.append(report.terminated)
        return report

    monkeypatch.setattr(astar, "init_search", init_and_keep)
    monkeypatch.setattr(astar, "expand", expand_and_keep)
    ens, inst = gen_problem(20, 60, 5, "gaussian", 2)
    out = aomp_recover(ens.phi, inst.y, AompConfig(kmax=16, max_paths=20, audit=True))
    assert out.reason == REASON_RESIDUE and ends[-1] is not None
    built = tries[0].paths() + [ends[-1]]
    assert len(built) > 1 and max(len(p.support) for p in built) > 1
    for path in built:
        assert path.canonical == tuple(sorted(path.support))


def _stale_cost(trie, problem, config):
    trie.paths()[0].cost += 1.0


def _rising_residue(trie, problem, config):
    path = trie.paths()[0]
    path.norms = path.norms[:-1] + (2.0 * path.norms[-2],)
    path.cost = config.path_cost(path.norms)  # fresh, so only the history is wrong


def _shared_support(trie, problem, config):
    first, second = trie.paths()[:2]
    second.canonical = first.canonical


def _over_the_cap(trie, problem, config):
    first = trie.paths()[0]
    norms = first.norms[:2]
    j = 0
    while trie.live_count <= config.max_paths:
        if not trie.has_equivalent((j,)):
            trie.insert(PathState((j,), norms, config.path_cost(norms), first.fact))
        j += 1


def _overlapping_candidates(trie, problem, config):
    # the empty support's factorization leaves y, which every atom of the
    # path still correlates with, as the residue
    for path in trie.paths():
        path.fact = IncrementalFactorization.empty(problem)


def _residue_off_by_a_support_column(trie, problem, config):
    # a residue that keeps 1e-6 ||y|| along a unit-norm support column, the
    # first column of Q, as an orthogonalization that lost orthogonality
    # would; the norms and cost stay as they were
    for path in trie.paths():
        fact = path.fact
        residue = fact.residue + 1e-6 * np.linalg.norm(problem.y) * fact.q[:, 0]
        fact._residue, fact._g = residue, None  # the next expansion correlates it


@pytest.mark.parametrize("corrupt, message", [
    (_stale_cost, "stored cost is stale"),
    (_rising_residue, "residue history increased"),
    (_shared_support, "share a support set"),
    (_over_the_cap, "exceed max_paths"),
    (_overlapping_candidates, "overlap the path support"),
    (_residue_off_by_a_support_column, "overlap the path support"),
])
def test_audit_catches_a_corrupted_search(monkeypatch, corrupt, message):
    real_expand = astar.expand

    def expand_then_corrupt(trie, best, config):
        report = real_expand(trie, best, config)
        corrupt(trie, best.fact.problem, config)
        return report

    monkeypatch.setattr(astar, "expand", expand_then_corrupt)
    ens, inst = gen_problem(20, 40, 6, "gaussian", 3)
    cfg = AompConfig(kmax=12, initial_paths=3, max_paths=5, audit=True)
    with pytest.raises(AuditError, match=message):
        aomp_recover(ens.phi, inst.y, cfg)


def _stale_cost_only(path, config):
    path.cost += 1.0


def _rising_residue_at_the_same_cost(path, config):
    # under the mul model the cost reads only the last norm and the length
    path.norms = (path.norms[-1] / 2.0,) + path.norms[1:]


@pytest.mark.parametrize("corrupt, message", [
    (_stale_cost_only, "stored cost is stale"),
    (_rising_residue_at_the_same_cost, "residue history increased"),
])
def test_audit_rechecks_a_path_changed_after_it_passed(monkeypatch, corrupt, message):
    # the audit checks a path's cost and history again once either has
    # changed, also for a path that passed earlier rounds unchanged
    real_expand = astar.expand
    audited = []

    def expand_then_corrupt(trie, best, config):
        report = real_expand(trie, best, config)
        passed = [p for p in trie.paths() if any(p is q for q in audited)]
        if passed:
            corrupt(passed[-1], config)
        audited[:] = trie.paths()
        return report

    monkeypatch.setattr(astar, "expand", expand_then_corrupt)
    ens, inst = gen_problem(20, 40, 6, "gaussian", 3)
    cfg = AompConfig(kmax=12, initial_paths=3, max_paths=5, cost_model="mul", audit=True)
    with pytest.raises(AuditError, match=message):
        aomp_recover(ens.phi, inst.y, cfg)


def test_inner_loops_run_no_checked_kernel(monkeypatch):
    # the problem is checked once at entry; the search (its seeds ranked
    # from the root's own correlations), OMP and MMP-DF reach neither the
    # checked correlations nor top_indices, under any name
    calls = {}
    for module in (linalg, astar, baselines):
        for name in ("correlations", "top_indices"):
            real = getattr(linalg, name)

            def counted(*args, _real=real, _key=(module.__name__, name), **kwargs):
                calls[_key] = calls.get(_key, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted, raising=False)
    ens, inst = gen_problem(40, 80, 12, "gaussian", 5)
    out = aomp_recover(ens.phi, inst.y, AompConfig(kmax=30))
    assert out.iterations > 1
    assert calls == {}
    assert omp_recover(ens.phi, inst.y).iterations > 1
    assert mmp_df_recover(ens.phi, inst.y, 12).nodes_expanded > 1
    assert calls == {}


def test_kmax_beyond_m_is_rejected():
    # a path holds at most M atoms, so a longer kmax can never be reached
    ens, inst = gen_problem(12, 24, 3, "gaussian", 4)
    cfg = AompConfig(kmax=13)
    with pytest.raises(ValueError, match="exceeds"):
        aomp_recover(ens.phi, inst.y, cfg)
    with pytest.raises(ValueError, match="exceeds"):
        hybrid_recover(ens.phi, inst.y, cfg, 3)
    assert aomp_recover(ens.phi, inst.y, AompConfig(kmax=12)).reason == REASON_RESIDUE


def test_zero_measurement_short_circuits():
    phi = np.random.default_rng(0).normal(size=(10, 20))
    out = aomp_recover(phi, np.zeros(10), AompConfig(kmax=5))
    assert out.support == ()
    assert out.reason == REASON_RESIDUE
    assert np.all(out.xhat == 0)


def test_shape_validation():
    with pytest.raises(ValueError):
        aomp_recover(np.zeros((4, 8)), np.zeros(5), AompConfig(kmax=3))


def test_expansion_round_post_conditions():
    # scripted single rounds: the expanded path either terminates the
    # search, is consumed by its first accepted child, or is closed: it
    # stays live but is never selected again.  With one branch, a child
    # whose support was opened before leaves its parent closed.
    closures = 0
    for (initial, branch), seed in product(((2, 3), (3, 1)), range(20)):
        ens, inst = gen_problem(18, 40, 6, "gaussian", derive_seed(31, "exp", seed))
        cfg = AompConfig(kmax=10, initial_paths=initial, branch=branch, max_paths=4)
        trie, done = init_search(check_problem(ens.phi, inst.y), cfg)
        if done is not None:
            continue
        closed = []
        for _ in range(12):
            best = select_best_incomplete(trie)
            if best is None:
                break
            assert all(best is not p for p in closed)
            before = trie.live_count
            report = expand(trie, best, cfg)
            assert trie.live_count <= cfg.max_paths
            if report.terminated is not None:
                break
            if report.consumed:
                assert best not in trie.paths()  # replaced by its first child
                assert trie.live_count >= before
            else:
                assert any(best is p for p in trie.paths())
                closed.append(best)
            assert report.children_evaluated <= cfg.branch
        closures += len(closed)
    assert closures > 0


def test_init_search_seeds_top_correlated_atoms():
    ens, inst = gen_problem(20, 40, 5, "gaussian", 77)
    cfg = AompConfig(kmax=8, initial_paths=3)
    trie, done = init_search(check_problem(ens.phi, inst.y), cfg)
    scores = np.abs(ens.phi.T @ inst.y)
    want = set(np.argsort(-scores)[:3])
    got = {p.support[0] for p in trie.paths()}
    assert got == want
    for p in trie.paths():
        assert p.length == 1
        assert p.cost > 0


def _count_appends(monkeypatch):
    """The atoms of every `IncrementalFactorization.appended` call, and of
    every child the search prices with `_priced`, from now on."""
    atoms = []
    for name in ("appended", "_priced"):
        real = getattr(IncrementalFactorization, name)

        def counted(self, index, *args, real=real):
            atoms.append(index)
            return real(self, index, *args)

        monkeypatch.setattr(IncrementalFactorization, name, counted)
    return atoms


def test_equivalent_paths_are_pruned_not_duplicated(monkeypatch):
    # wide searches on hard instances must eventually revisit a support
    # set; the trie memory reports those as hits instead of duplicating,
    # and a hit is never factorized: each seed path and each other child
    # evaluated costs one append
    atoms = _count_appends(monkeypatch)
    hits = 0
    for seed in range(10):
        ens, inst = gen_problem(14, 24, 9, "gaussian", derive_seed(5, "eq", seed))
        cfg = AompConfig(kmax=12, initial_paths=3, branch=3, max_paths=50, audit=True)
        atoms.clear()
        out = aomp_recover(ens.phi, inst.y, cfg)
        assert len(atoms) == cfg.initial_paths + out.nodes_expanded - out.equivalent_hits
        hits += out.equivalent_hits
    assert hits > 0


def test_a_support_opened_in_another_order_is_not_factorized(monkeypatch):
    # atoms 0 then 1 opened the set {0, 1}; expanding the path (1,) meets
    # that set again through atom 0, counts the hit without appending,
    # and goes on to atom 2
    phi = np.eye(4)
    y = np.array([3.0, 2.0, 1.0, 0.5])
    cfg = AompConfig(kmax=3, initial_paths=1, branch=2, max_paths=5)
    root = PathState((), (float(np.linalg.norm(y)),), 0.0,
                     IncrementalFactorization.empty(check_problem(phi, y)))
    trie = SearchTrie(cfg.kmax)
    trie.insert(root.extended(0, cfg).extended(1, cfg))
    best = root.extended(1, cfg)
    trie.insert(best)
    atoms = _count_appends(monkeypatch)
    report = expand(trie, best, cfg)
    assert atoms == [2]
    assert (report.children_evaluated, report.equivalent_hits, report.accepted) == (2, 1, 1)
    assert report.terminated is None
    assert sorted(p.canonical for p in trie.paths()) == [(0, 1), (1, 2)]


def test_a_child_never_expanded_never_forms_its_residue(monkeypatch):
    # the search prices its children from their parent's correlations; a
    # priced child's residue is formed when the child is expanded, and
    # the children that are never expanded never form one
    formed, expanded = [], []
    real_form, real_expand = IncrementalFactorization._form, astar.expand

    def form(self):
        formed.append(self)
        real_form(self)

    def expand_and_note(trie, best, config):
        expanded.append(best.fact)
        return real_expand(trie, best, config)

    monkeypatch.setattr(IncrementalFactorization, "_form", form)
    monkeypatch.setattr(astar, "expand", expand_and_note)
    atoms = _count_appends(monkeypatch)
    ens, inst = gen_problem(40, 64, 12, "gaussian", 3)
    out = aomp_recover(ens.phi, inst.y, AompConfig(kmax=20))
    assert out.reason == REASON_RESIDUE
    # only expanded paths formed a residue, and some built paths never were
    assert formed and all(any(f is e for e in expanded) for f in formed)
    assert out.iterations < len(atoms)


@pytest.mark.parametrize("epsilon, formed", [(0.4, True), (0.1, False)])
def test_children_within_twice_the_threshold_are_formed_at_once(epsilon, formed):
    # atom 1 leaves a residue of norm sqrt(1.25) = 1.118 of ||y|| = 1.871:
    # 1.5 times the threshold at epsilon 0.4, so formed at once, by the
    # arithmetic of an append; 6 times it at epsilon 0.1, so priced
    phi, y = np.eye(3), np.array([1.0, 1.5, 0.5])
    config = AompConfig(kmax=3, epsilon=epsilon)
    root = PathState((), (float(np.linalg.norm(y)),), 0.0,
                     IncrementalFactorization.empty(check_problem(phi, y)))
    child = root.extended(1, config)
    assert (child.fact._residue is not None) == formed


OUTPUT_FIELDS = ("support", "reason", "iterations", "nodes_expanded", "paths_opened",
                 "equivalent_hits", "singular_skips", "hybrid_stage")


def _decisions(out):
    return tuple(getattr(out, name) for name in OUTPUT_FIELDS)


def test_a_search_takes_each_column_norm_once(monkeypatch):
    # the column norms have one store, the problem's, filled by one product
    # per problem; a column copy's own norm is taken only for the seeds,
    # whose norm is R's first diagonal entry, though columns are appended
    # on many paths
    real_norm, real_colnorms = linalg._norm, linalg.Problem.colnorms.fget
    taken, stores = [], []

    def counted(v):
        taken.extend(np.flatnonzero((phi == v[:, None]).all(axis=0)).tolist())
        return real_norm(v)

    def colnorms(problem):
        if problem._colnorms is None:
            stores.append(problem)
        return real_colnorms(problem)

    monkeypatch.setattr(linalg, "_norm", counted)
    monkeypatch.setattr(linalg.Problem, "colnorms", property(colnorms))
    atoms = _count_appends(monkeypatch)
    config = AompConfig(kmax=16, branch=3)
    for seed in range(3):
        ens, inst = gen_problem(20, 48, 7, "gaussian", derive_seed(8, "norms", seed))
        phi = ens.phi
        taken.clear()
        atoms.clear()
        stores.clear()
        out = aomp_recover(phi, inst.y, config)
        assert out.iterations > 3
        # columns were appended on several paths
        assert len(atoms) > len(set(atoms))
        assert len(stores) == 1
        assert sorted(taken) == sorted(atoms[:config.initial_paths])


def test_column_norms_are_not_shared_between_searches():
    # doubling phi and y is exact in floating point, so a search of the
    # doubled problem run alone takes the same decisions and the same
    # coefficients bit for bit, with every norm doubled; run after the
    # search of (phi, y), and before another, it must still do so
    ens, inst = gen_problem(24, 48, 6, "gaussian", 11)
    config = AompConfig(kmax=14)
    first = aomp_recover(ens.phi, inst.y, config)
    doubled = aomp_recover(2.0 * ens.phi, 2.0 * inst.y, config)
    again = aomp_recover(ens.phi, inst.y, config)
    assert first.iterations > 1
    for out in (doubled, again):
        assert _decisions(out) == _decisions(first)
        assert out.xhat.tobytes() == first.xhat.tobytes()
    assert doubled.residual_norm == 2.0 * first.residual_norm
    assert again.residual_norm == first.residual_norm


@pytest.mark.parametrize("seed", range(3))
def test_input_layout_keeps_every_decision(seed):
    # every solver reads a checked problem whose phi is C-ordered and whose
    # y is contiguous, so a Fortran-order or strided phi and a strided y
    # give the outputs of the contiguous arrays bit for bit
    ens, inst = gen_problem(24, 48, 6, "gaussian", derive_seed(4, "layout", seed))
    phi, y, k = np.ascontiguousarray(ens.phi), inst.y.copy(), inst.k
    wide = np.zeros((phi.shape[0], 2 * phi.shape[1]))
    wide[:, ::2] = phi
    column = np.zeros((y.size, 2))
    column[:, 0] = y
    layouts = [(np.asfortranarray(phi), y), (wide[:, ::2], y), (phi, column[:, 0])]
    config = AompConfig(kmax=14)
    solvers = {
        "aomp": lambda p, v: aomp_recover(p, v, config),
        "hybrid": lambda p, v: hybrid_recover(p, v, config, k),
        "omp": omp_recover,
        "sp": lambda p, v: baselines.sp_recover(p, v, k),
        "fbp": baselines.fbp_recover,
        "iht": lambda p, v: baselines.iht_recover(p, v, k),
        "mmp-df": lambda p, v: mmp_df_recover(p, v, k),
    }
    for name, solve in solvers.items():
        want = solve(phi, y)
        for layout in layouts:
            got = solve(*layout)
            assert _decisions(got) == _decisions(want), name
            assert got.xhat.tobytes() == want.xhat.tobytes(), name
            assert got.residual_norm == want.residual_norm, name


def test_hybrid_returns_first_stage_when_greedy_suffices():
    ens, inst = gen_problem(32, 64, 4, "gaussian", 12)
    ref = omp_recover(ens.phi, inst.y, max_iter=4)
    assert ref.reason == REASON_RESIDUE  # easy instance, OMP nails it
    out = hybrid_recover(ens.phi, inst.y, AompConfig(kmax=10), 4)
    assert out.solver == "hybrid"
    assert out.hybrid_stage == "omp"
    assert list(out.support) == list(ref.support)


def test_hybrid_falls_back_to_search_on_greedy_failure():
    fell_back = 0
    for seed in range(60):
        ens, inst = gen_problem(100, 256, 30, "gaussian", derive_seed(9, "hy", seed))
        omp = omp_recover(ens.phi, inst.y, max_iter=30)
        if omp.reason == REASON_RESIDUE:
            continue
        fell_back += 1
        out = hybrid_recover(ens.phi, inst.y, AompConfig(kmax=60), 30)
        assert out.hybrid_stage == "astar"
        rel = np.linalg.norm(inst.x - out.xhat) / np.linalg.norm(inst.x)
        assert rel < 1e-6
        break
    assert fell_back == 1, "no greedy failure found in 60 seeds"


def test_hybrid_searches_when_greedy_needs_one_atom_more_than_k():
    # y = a0 + a1, and a2 leans towards both and off their plane, so OMP
    # takes a2 first and meets the target only at K + 1 = 3 atoms
    phi = np.array([[1.0, 0.0, 0.8], [0.0, 1.0, 0.8], [0.0, 0.0, 0.3], [0.0, 0.0, 0.0]])
    y = phi[:, 0] + phi[:, 1]
    assert omp_recover(phi, y, max_iter=2).reason != REASON_RESIDUE
    assert omp_recover(phi, y, max_iter=3).reason == REASON_RESIDUE
    out = hybrid_recover(phi, y, AompConfig(kmax=3), 2)
    assert out.hybrid_stage == "astar" and out.reason == REASON_RESIDUE


def test_hybrid_validates_k():
    ens, inst = gen_problem(10, 20, 3, "gaussian", 1)
    with pytest.raises(ValueError):
        hybrid_recover(ens.phi, inst.y, AompConfig(kmax=5), 0)
    with pytest.raises(ValueError):
        hybrid_recover(ens.phi, inst.y, AompConfig(kmax=5), 11)


def test_rejects_non_finite_and_complex_input():
    ens, inst = gen_problem(12, 24, 3, "gaussian", 4)
    bad_y = inst.y.copy()
    bad_y[2] = np.nan
    bad_phi = ens.phi.copy()
    bad_phi[1, 5] = np.inf
    cfg = AompConfig(kmax=6)
    cases = [
        (ens.phi, bad_y, "NaN"),
        (bad_phi, inst.y, "NaN or infinite"),
        (ens.phi.astype(complex), inst.y, "complex"),
        (ens.phi, inst.y + 1j, "complex"),
    ]
    for phi, y, message in cases:
        with pytest.raises(ValueError, match=message):
            aomp_recover(phi, y, cfg)
        with pytest.raises(ValueError, match=message):
            hybrid_recover(phi, y, cfg, 3)
    with pytest.raises(ValueError):
        hybrid_recover(np.zeros((4, 8)), np.zeros(5), cfg, 2)


# Work counters and supports of fixed-seed searches, recorded before the
# factorization became lazy.  An optimisation that claims to leave the
# search unchanged must reproduce them exactly on every machine.
DESK = dict(m=100, n=256, k=30, config=dict(kmax=70))
IMAGE_BLOCK = dict(m=40, n=64, k=12, config=dict(kmax=20, alpha_amul=0.85))
# with P = 10 the searches fill the registry and displace its costliest
# path (67 displacement tests on DESK seed 3, 7 on IMAGE_BLOCK seed 17)
DESK_CAPPED = dict(DESK, config=dict(DESK["config"], max_paths=10))
IMAGE_BLOCK_CAPPED = dict(IMAGE_BLOCK, config=dict(IMAGE_BLOCK["config"], max_paths=10))
GOLDEN = [
    (DESK, 3, {
        "aomp": (128, 255, 213, 44),
        "hybrid": (128, 255, 213, 44),
    }, {
        "aomp": (225, 104, 241, 195, 44, 182, 95, 13, 228, 245, 126, 103, 234,
                 59, 209, 57, 99, 71, 118, 208, 127, 101, 206, 116, 35, 80, 102,
                 149, 173, 140, 61, 186, 43, 18, 51),
        "hybrid": (225, 104, 241, 195, 44, 182, 95, 13, 228, 245, 126, 103, 234,
                   59, 209, 57, 99, 71, 118, 208, 127, 101, 206, 116, 35, 80, 102,
                   149, 173, 140, 61, 186, 43, 18, 51),
    }),
    (DESK, 11, {
        "aomp": (46, 91, 77, 16),
        "hybrid": (30, 0, 0, 0),
    }, {
        "aomp": (8, 239, 144, 69, 56, 119, 146, 55, 170, 246, 58, 149, 169, 207,
                 227, 185, 107, 249, 218, 201, 222, 150, 82, 86, 212, 232, 38,
                 225, 152, 118),
        "hybrid": (8, 69, 56, 144, 239, 119, 146, 207, 170, 55, 246, 58, 82, 169,
                   149, 227, 185, 249, 107, 201, 218, 222, 150, 86, 212, 232, 38,
                   152, 225, 118),
    }),
    (IMAGE_BLOCK, 17, {
        "aomp": (19, 37, 35, 4),
        "hybrid": (19, 37, 35, 4),
    }, {
        "aomp": (30, 48, 6, 45, 43, 33, 4, 63, 60, 56, 34, 12),
        "hybrid": (30, 48, 6, 45, 43, 33, 4, 63, 60, 56, 34, 12),
    }),
    (IMAGE_BLOCK, 3, {
        "aomp": (19, 37, 34, 5),
        "hybrid": (12, 0, 0, 0),
    }, {
        "aomp": (29, 11, 19, 46, 9, 34, 59, 4, 60, 15, 35, 55),
        "hybrid": (11, 19, 29, 46, 34, 59, 60, 4, 9, 15, 55, 35),
    }),
    (DESK_CAPPED, 3, {
        "aomp": (109, 217, 157, 37),
        "hybrid": (109, 217, 157, 37),
    }, {
        "aomp": (104, 245, 225, 241, 195, 44, 182, 228, 126, 13, 103, 59, 209,
                 127, 71, 57, 99, 118, 234, 101, 208, 206, 116, 35, 80, 102, 149,
                 173, 140, 61, 186, 43, 18, 51),
        "hybrid": (104, 245, 225, 241, 195, 44, 182, 228, 126, 13, 103, 59, 209,
                   127, 71, 57, 99, 118, 234, 101, 208, 206, 116, 35, 80, 102, 149,
                   173, 140, 61, 186, 43, 18, 51),
    }),
    (IMAGE_BLOCK_CAPPED, 17, {
        "aomp": (19, 37, 33, 4),
        "hybrid": (19, 37, 33, 4),
    }, {
        "aomp": (30, 48, 6, 45, 43, 33, 4, 63, 60, 56, 34, 12),
        "hybrid": (30, 48, 6, 45, 43, 33, 4, 63, 60, 56, 34, 12),
    }),
]


@pytest.mark.parametrize("size, seed, counters, supports", GOLDEN)
def test_golden_work_counters(size, seed, counters, supports):
    ens, inst = gen_problem(size["m"], size["n"], size["k"], "gaussian", seed)
    cfg = AompConfig(**size["config"])
    outs = {
        "aomp": aomp_recover(ens.phi, inst.y, cfg),
        "hybrid": hybrid_recover(ens.phi, inst.y, cfg, size["k"]),
    }
    for name, out in outs.items():
        got = (out.iterations, out.nodes_expanded, out.paths_opened, out.equivalent_hits)
        assert got == counters[name], name
        assert out.support == supports[name], name
        assert out.reason == REASON_RESIDUE
