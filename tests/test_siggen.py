"""Seeded problem generation: reproducibility and ensembles."""

import numpy as np
import pytest

from treepursuit.siggen import (
    derive_seed,
    gen_instance,
    gen_matrix,
    gen_problem,
    substream,
)


def test_same_seed_reproduces_everything():
    a_ens, a_inst = gen_problem(20, 50, 5, "gaussian", 123)
    b_ens, b_inst = gen_problem(20, 50, 5, "gaussian", 123)
    assert np.array_equal(a_ens.phi, b_ens.phi)
    assert np.array_equal(a_inst.x, b_inst.x)
    assert np.array_equal(a_inst.y, b_inst.y)
    assert a_inst.support == b_inst.support


def test_different_seeds_differ():
    a = gen_matrix(20, 50, 1).phi
    b = gen_matrix(20, 50, 2).phi
    assert not np.array_equal(a, b)


def test_substream_keys_are_independent():
    a = substream(7, "matrix")
    b = substream(7, "signal")
    assert not np.array_equal(a.normal(size=8), b.normal(size=8))
    again = substream(7, "matrix")
    assert np.array_equal(substream(7, "matrix").normal(size=8), again.normal(size=8))


def test_derive_seed_is_stable_and_spreads():
    seeds = {derive_seed(42, "trial", t) for t in range(200)}
    assert len(seeds) == 200
    assert derive_seed(42, "trial", 7) == derive_seed(42, "trial", 7)
    assert derive_seed(42, "trial", 7) != derive_seed(43, "trial", 7)


def test_matrix_entry_scale_defaults_to_one_over_n():
    # entries are N(0, (1/N)^2); with N=40 and 4000 samples the sample std
    # concentrates near 1/40 = 0.025
    ens = gen_matrix(100, 40, 5)
    assert ens.phi.shape == (100, 40)
    sample = ens.phi.std()
    assert 0.8 / 40 < sample < 1.2 / 40
    wide = gen_matrix(100, 40, 5, entry_std=0.5)
    assert 0.4 < wide.phi.std() < 0.6


def test_instance_support_and_measurement():
    ens, inst = gen_problem(16, 32, 6, "gaussian", 77)
    assert len(set(inst.support)) == 6
    assert all(0 <= j < 32 for j in inst.support)
    assert np.allclose(inst.y, ens.phi @ inst.x)
    off = np.delete(np.arange(32), list(inst.support))
    assert np.all(inst.x[off] == 0)
    assert np.all(inst.x[list(inst.support)] != 0)


def test_uniform_and_cars_value_distributions():
    rngseen = []
    for seed in range(40):
        _, u = gen_problem(12, 30, 5, "uniform", seed)
        vals = u.x[list(u.support)]
        assert np.all(np.abs(vals) <= 1.0)
        assert np.all(vals != 0)
        rngseen.extend(vals)
        _, c = gen_problem(12, 30, 5, "cars", seed)
        assert set(np.abs(c.x[list(c.support)])) == {1.0}
    # both signs should occur across many draws
    rngseen = np.asarray(rngseen)
    assert (rngseen > 0).any() and (rngseen < 0).any()


def test_unknown_ensemble_rejected():
    with pytest.raises(ValueError):
        gen_problem(10, 20, 3, "laplace", 0)


def test_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        gen_problem(10, 20, 0, "gaussian", 0)
    with pytest.raises(ValueError):
        gen_problem(10, 20, 21, "gaussian", 0)
    with pytest.raises(ValueError):
        gen_matrix(0, 5, 1)


@pytest.mark.parametrize("std", [float("nan"), float("inf"), 0.0, -1.0])
def test_an_entry_std_outside_zero_to_infinity_is_rejected(std):
    # nan and inf once passed the check and gave an all-NaN or all-inf phi
    with pytest.raises(ValueError, match="entry_std"):
        gen_matrix(10, 20, 1, entry_std=std)


def test_gen_instance_with_explicit_matrix():
    ens = gen_matrix(10, 25, 9)
    inst = gen_instance(25, 4, "gaussian", 11, ens.phi)
    assert np.allclose(inst.y, ens.phi @ inst.x)
