"""Recovery output records: sparse serialization."""

import numpy as np

from treepursuit.results import (
    REASON_ALL_COMPLETE,
    REASON_RESIDUE,
    RecoveryOutput,
)


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
