"""Recovery output records: sparse serialization and the exit contract."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treepursuit.astar import AompConfig, hybrid_recover
from treepursuit.baselines import iht_recover, mmp_df_recover, sp_recover
from treepursuit.experiments import SOLVERS, make_solver, phase_transition, run_batch, sweep_k
from treepursuit.haar import sparsify_blocks
from treepursuit.imaging import recover_image, synthetic_image
from treepursuit.linalg import check_problem
from treepursuit.results import (
    REASON_ALL_COMPLETE,
    REASON_BUDGET,
    REASON_DIVERGED,
    REASON_MAX_ITER,
    REASON_RESIDUE,
    RecoveryOutput,
    SettingsError,
    finish,
)
from treepursuit.siggen import ENSEMBLES, gen_instance, gen_matrix, gen_problem


def make_output():
    xhat = np.zeros(10)
    xhat[[2, 7]] = [1.5, -0.25]
    return RecoveryOutput(
        n=10,
        support=(2, 7),
        xhat=xhat,
        reason=REASON_RESIDUE,
        solver="omp",
        residual_norm=1e-9,
        iterations=2,
        wall_time_ms=3.5,
    )


def test_to_dict_stores_support_aligned_coefficients():
    d = make_output().to_dict()
    assert d["support"] == [2, 7]
    assert d["coefficients"] == [1.5, -0.25]
    assert d["reason"] == REASON_RESIDUE
    assert d["wall_time_ms"] == 3.5
    lean = make_output().to_dict(include_times=False)
    assert "wall_time_ms" not in lean
    empty = RecoveryOutput(
        n=5,
        support=(),
        xhat=np.zeros(5),
        reason=REASON_ALL_COMPLETE,
        solver="aomp",
        residual_norm=2.0,
    ).to_dict()
    assert (empty["support"], empty["coefficients"]) == ([], [])
    assert empty["reason"] == REASON_ALL_COMPLETE


def test_finish_decides_the_reason_from_the_recomputed_residual():
    problem = check_problem(np.eye(3), np.array([1.0, 2.0, 0.0]))
    met = finish(problem, [1, 0], [2.0, 1.0], 1e-6, REASON_MAX_ITER, "omp", 0.0, iterations=2)
    assert (met.reason, met.residual_norm, met.iterations) == (REASON_RESIDUE, 0.0, 2)
    assert met.support == (1, 0) and list(met.xhat) == [1.0, 2.0, 0.0]
    short = finish(problem, [1], [2.0], 1e-6, REASON_BUDGET, "aomp", 0.0)
    assert (short.reason, short.residual_norm, short.converged) == (REASON_BUDGET, 1.0, False)
    with pytest.raises(TypeError):
        finish(problem, [1], [2.0], 1e-6, REASON_MAX_ITER, "omp", 0.0, iteration=1)


@st.composite
def shapes(draw):
    m = draw(st.integers(2, 24))
    n = draw(st.integers(2, 32))
    return m, n, draw(st.integers(1, min(n, m // 2)))


@settings(deadline=None, max_examples=600)
@given(
    label=st.sampled_from(list(SOLVERS)),
    shape=shapes(),
    ensemble=st.sampled_from(ENSEMBLES),
    seed=st.integers(0, 2**16),
    variant=st.sampled_from(
        ["drawn", "zero y", "every column twice", "every column twice, y off range"]
    ),
)
@example(label="sp", shape=(4, 2, 2), ensemble="gaussian", seed=0, variant="drawn")
# each reaches a rank-deficient support: sp's union, then omp, mmp-df and a search
@example(label="sp", shape=(2, 2, 1), ensemble="gaussian", seed=2, variant="every column twice")
@example(label="omp", shape=(3, 2, 1), ensemble="gaussian", seed=0,
         variant="every column twice, y off range")
@example(label="mmp-df", shape=(4, 2, 2), ensemble="gaussian", seed=0,
         variant="every column twice, y off range")
@example(label="amul-aompe", shape=(3, 2, 1), ensemble="gaussian", seed=0,
         variant="every column twice, y off range")
def test_every_solver_keeps_the_exit_contract(label, shape, ensemble, seed, variant):
    m, n, k = shape
    ens, inst = gen_problem(m, n, k, ensemble, seed)
    phi, y = ens.phi, inst.y
    if variant == "zero y":
        y = np.zeros(m)
    elif variant.startswith("every column twice"):
        phi = np.hstack([phi, phi])  # rank-deficient supports
    if variant.endswith("y off range"):
        # on a tall phi, only twins of the chosen atoms are left to pick
        # once the others are taken
        y = np.random.default_rng(seed).normal(size=m)
    solver = make_solver(label)
    out = solver.run(phi, y, k)
    residual = float(np.linalg.norm(y - phi @ out.xhat))
    assert out.residual_norm == residual
    assert (out.reason == REASON_RESIDUE) == (residual <= 1e-6 * np.linalg.norm(y))
    assert out.converged == (out.reason not in (REASON_BUDGET, REASON_DIVERGED))
    again = solver.run(phi, y, k)
    assert again.to_dict(include_times=False) == out.to_dict(include_times=False)


# one row per entry point and count or seed argument: (id, call, name,
# good value, limit, error class, type message); `call` maps the value to
# a comparable result, `limit` is None where the rule has no upper limit,
# name "seed" marks a seed (0 is a good seed, so it has no 0 column), and
# a type message, where given, is what a float, bool or str meets first
_ENS, _INST = gen_problem(12, 30, 3, "gaussian", 2)
_PHI, _Y = _ENS.phi, _INST.y
_IMAGE = synthetic_image(8, seed=1)


def _solved(out):
    return out.support, out.xhat.tobytes()


def _batch(trials=2, seed=1, jobs=1):
    batch = run_batch(make_solver("omp"), 20, 10, 2, "gaussian", trials, seed, jobs=jobs)
    return [(r.seed, r.exact, r.rel_err) for r in batch.records]


def _sweep(k=2, seed=1):
    result = sweep_k([make_solver("omp")], 20, 10, [k], "gaussian", 2, seed)
    return [(r["solver"], r["K"], r["rate"], r["anmse"]) for r in result.summary_rows()]


def _phase(trials=2, seed=1):
    return phase_transition(make_solver("omp"), 16, [0.5], [0.25], trials, seed).cells


def _image(k=4, m=16, seed=1):
    return recover_image(_IMAGE, k, m, make_solver("omp"), seed).reconstruction.tobytes()


def _search(label):
    def call(v):
        return _solved(make_solver(label).run(_PHI, _Y, v))
    return "%s-k" % label, call, "k", 3, None, SettingsError, None


def _config(key, good):
    def call(v):
        return AompConfig(**{key: v}).to_dict()
    return "AompConfig-" + key, call, key, good, None, ValueError, (
        "config key %r must be of type int" % key)


_COUNT_ROWS = [
    ("gen_matrix-m", lambda v: gen_matrix(v, 5, 1).phi.tobytes(), "m", 3, None, ValueError, None),
    ("gen_matrix-n", lambda v: gen_matrix(3, v, 1).phi.tobytes(), "n", 5, None, ValueError, None),
    ("gen_matrix-seed", lambda v: gen_matrix(3, 5, v).phi.tobytes(), "seed", 7, None, ValueError,
     None),
    ("gen_instance-n", lambda v: gen_instance(v, 1, "gaussian", 1, _PHI).x.tobytes(), "n", 30,
     None, ValueError, None),
    ("gen_instance-k", lambda v: gen_instance(30, v, "gaussian", 1, _PHI).x.tobytes(), "k", 4, 30,
     ValueError, None),
    ("gen_instance-seed", lambda v: gen_instance(30, 4, "gaussian", v, _PHI).x.tobytes(), "seed",
     7, None, ValueError, None),
    ("run_batch-trials", lambda v: _batch(trials=v), "trials", 2, None, ValueError, None),
    ("run_batch-jobs", lambda v: _batch(jobs=v), "jobs", 1, None, ValueError, None),
    ("run_batch-seed", lambda v: _batch(seed=v), "seed", 3, None, ValueError, None),
    ("sweep_k-k", lambda v: _sweep(k=v), "k", 2, None, ValueError, None),
    ("sweep_k-seed", lambda v: _sweep(seed=v), "seed", 3, None, ValueError, None),
    ("phase_transition-trials", lambda v: _phase(trials=v), "trials", 2, None, ValueError, None),
    ("phase_transition-seed", lambda v: _phase(seed=v), "seed", 3, None, ValueError, None),
    ("synthetic_image-seed", lambda v: synthetic_image(8, seed=v).tobytes(), "seed", 3, None,
     ValueError, None),
    ("recover_image-k", lambda v: _image(k=v), "k", 4, 64, ValueError, None),
    ("recover_image-m", lambda v: _image(m=v), "m", 16, 64, ValueError, None),
    ("recover_image-seed", lambda v: _image(seed=v), "seed", 3, None, ValueError, None),
    ("sparsify_blocks-k", lambda v: sparsify_blocks(_IMAGE, v).tobytes(), "k", 4, 64, ValueError,
     None),
    ("sp-k", lambda v: _solved(sp_recover(_PHI, _Y, v)), "k", 3, 6, SettingsError, None),
    ("iht-k", lambda v: _solved(iht_recover(_PHI, _Y, v)), "k", 3, 30, SettingsError, None),
    ("mmp-df-k", lambda v: _solved(mmp_df_recover(_PHI, _Y, v)), "k", 3, 12, SettingsError, None),
    ("hybrid-k", lambda v: _solved(hybrid_recover(_PHI, _Y, AompConfig(kmax=5), v)), "k", 3, 12,
     SettingsError, None),
    _search("amul-aompk"),
    _search("mul-aompk"),
    _search("aomp"),
    _config("initial_paths", 3),
    _config("branch", 2),
    _config("kmax", 20),
    _config("max_iterations", 50),
]


def _cells():
    for row in _COUNT_ROWS:
        name, limit = row[2], row[4]
        bad = {"float": 2.5, "bool": True, "str": "3"}
        if name != "seed":
            bad["0"] = 0
        if limit is not None:
            bad["limit+1"] = limit + 1
        for column, value in (*bad.items(), ("np.int64", None)):
            yield pytest.param(row, value, id="%s-%s" % (row[0], column))


@pytest.mark.parametrize("row, value", _cells())
def test_every_count_and_seed_argument_meets_the_one_rule(row, value):
    # an int or numpy integer, not a bool, with 1 <= value <= its limit,
    # and a seed any int; a numpy integer gives the int's result
    _, call, name, good, _, error, type_message = row
    if value is None:
        assert call(np.int64(good)) == call(good)
        return
    if name == "seed":
        prefix = "seed must be an integer, got "
    elif type_message and type(value) is not int:
        prefix = type_message
    else:
        prefix = "%s must be an integer" % name
    with pytest.raises(error, match="^" + re.escape(prefix)) as info:
        call(value)
    assert str(info.value).endswith(repr(value))
