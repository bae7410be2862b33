"""Recovery output records: sparse serialization and the exit contract."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treepursuit.experiments import SOLVERS, make_solver
from treepursuit.results import (
    REASON_ALL_COMPLETE,
    REASON_BUDGET,
    REASON_DIVERGED,
    REASON_MAX_ITER,
    REASON_RESIDUE,
    RecoveryOutput,
    finish,
)
from treepursuit.siggen import ENSEMBLES, gen_problem


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
    phi = np.eye(3)
    y = np.array([1.0, 2.0, 0.0])
    met = finish(phi, y, [1, 0], [2.0, 1.0], 1e-6, REASON_MAX_ITER, "omp", 0.0, iterations=2)
    assert (met.reason, met.residual_norm, met.iterations) == (REASON_RESIDUE, 0.0, 2)
    assert met.support == (1, 0) and list(met.xhat) == [1.0, 2.0, 0.0]
    short = finish(phi, y, [1], [2.0], 1e-6, REASON_BUDGET, "aomp", 0.0)
    assert (short.reason, short.residual_norm, short.converged) == (REASON_BUDGET, 1.0, False)
    with pytest.raises(TypeError):
        finish(phi, y, [1], [2.0], 1e-6, REASON_MAX_ITER, "omp", 0.0, iteration=1)


@st.composite
def shapes(draw):
    m = draw(st.integers(2, 24))
    n = draw(st.integers(2, 32))
    return m, n, draw(st.integers(1, min(n, m // 2)))


@settings(deadline=None, max_examples=400)
@given(
    label=st.sampled_from(list(SOLVERS)),
    shape=shapes(),
    ensemble=st.sampled_from(ENSEMBLES),
    seed=st.integers(0, 2**16),
)
@example(label="sp", shape=(4, 2, 2), ensemble="gaussian", seed=0)
def test_every_solver_keeps_the_exit_contract(label, shape, ensemble, seed):
    m, n, k = shape
    ens, inst = gen_problem(m, n, k, ensemble, seed)
    solver = make_solver(label)
    out = solver.run(ens.phi, inst.y, k)
    residual = float(np.linalg.norm(inst.y - ens.phi @ out.xhat))
    assert out.residual_norm == residual
    assert (out.reason == REASON_RESIDUE) == (residual <= 1e-6 * np.linalg.norm(inst.y))
    assert out.converged == (out.reason not in (REASON_BUDGET, REASON_DIVERGED))
    again = solver.run(ens.phi, inst.y, k)
    assert again.to_dict(include_times=False) == out.to_dict(include_times=False)
