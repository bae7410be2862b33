"""Batch harness: pairing, aggregation, persistence, phase fits."""

import csv
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from treepursuit import experiments
from treepursuit.astar import AompConfig
from treepursuit.experiments import (
    EXACT_RTOL,
    SOLVERS,
    _logistic_mle,
    anmse,
    fit_rho_star,
    make_solver,
    phase_transition,
    relative_error,
    run_batch,
    sweep_k,
    write_records_csv,
)
from treepursuit.imaging import synthetic_image
from treepursuit.results import SettingsError
from treepursuit.siggen import derive_seed, gen_problem, substream


def test_relative_error_and_exact_threshold():
    x = np.array([3.0, 4.0, 0.0])
    assert relative_error(x, x) == 0.0
    assert relative_error(x, np.zeros(3)) == 1.0
    # the exact-recovery cut sits at one percent relative error
    assert EXACT_RTOL == 1e-2
    with pytest.raises(ValueError):
        relative_error(np.zeros(3), x)


def test_anmse_is_mean_squared_relative_error():
    assert anmse([0.1, 0.3]) == pytest.approx((0.01 + 0.09) / 2, abs=1e-15)
    with pytest.raises(ValueError):
        anmse([])
    with pytest.warns(UserWarning):
        val = anmse([0.1, np.inf])
    assert val == pytest.approx(0.01)


def test_solver_labels():
    assert make_solver("aomp").label == "amul-aompe"
    assert make_solver("aomp", cost_model="mul").label == "mul-aompe"
    assert make_solver("aomp", cost_model="mul", termination="sparsity").label == "mul-aompk"
    assert make_solver("omp").label == "omp"
    assert make_solver("sp", label="sp-custom").label == "sp-custom"
    with pytest.raises(ValueError):
        make_solver("basis-pursuit").run(np.zeros((2, 2)), np.zeros(2), 1)


def test_make_solver_rejects_what_the_solver_does_not_take():
    for name, params in [
        ("aomp", {"kmx": 9}),
        ("omp", {"kmax": 3}),
        ("aomp", {"max_iter": 5}),
        ("aomp", {"termination": "never"}),
        ("amul-aompe", {"cost_model": "mul"}),
        ("mul-aompe", {"alpha_amul": 0.9}),
        ("mul-aompk", {"kmax": 8}),
        ("sp", {"epsilon": 0.5}),
        ("aomp", {"alpha_amul": 2.0}),
        ("aomp", {"branch": 0}),
        ("mul-aompk", {"alpha_mul": 1.0}),
        ("hybrid", {"termination": "sparsity", "kmax": 30}),
        ("hybrid", {"cost_model": "mul", "alpha_amul": 0.9}),
        ("hybrid", {"epsilon": -1.0}),
        ("aomp", {"branch": 2.5}),
        ("aomp", {"initial_paths": 2.0}),
        ("aomp", {"audit": "no"}),
        ("aomp", {"kmax": "20"}),
        ("hybrid", {"max_paths": True}),
        ("aomp", {"epsilon": float("nan")}),
        ("omp", {"epsilon": -1.0}),
        ("omp", {"epsilon": float("nan")}),
        ("fbp", {"epsilon": float("nan")}),
        ("mmp-df", {"epsilon": -1e-9}),
    ]:
        with pytest.raises(ValueError):
            make_solver(name, **params)
    AompConfig(kmax=np.int64(5)).validate()


def test_make_solver_passes_every_setting_through():
    ens, inst = gen_problem(30, 60, 12, "cars", 3)
    out = make_solver("aomp", max_iterations=1).run(ens.phi, inst.y, 12)
    assert (out.iterations, out.reason) == (1, "budget_exhausted")
    spec = make_solver("aomp", cost_model="amul", termination="residue", kmax=9)
    assert spec.name == "amul-aompe"
    assert spec.params == {"cost_model": "amul", "termination": "residue", "kmax": 9}
    # the fixed settings of a label may be restated but not changed
    assert make_solver("amul-aompe", **spec.params) == spec


@pytest.mark.parametrize("label", list(SOLVERS))
def test_every_table_label_builds_and_runs(label):
    ens, inst = gen_problem(32, 64, 4, "gaussian", 5)
    spec = make_solver(label)
    assert spec.label == label
    out = spec.run(ens.phi, inst.y, 4)
    assert out.xhat.shape == (64,)
    assert np.isfinite(out.residual_norm)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_readme_solver_table_matches_the_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("Solver labels"):]
    section = section[: section.index("\n\n", section.index("| label"))]
    labels = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
    assert labels == list(SOLVERS)


def test_run_batch_records_numerical_failures_and_raises_on_bugs():
    class Failing:
        label = "failing"

        def __init__(self, exc):
            self.exc = exc

        def run(self, phi, y, k):
            raise self.exc

    batch = run_batch(Failing(ArithmeticError("overflow")), 30, 15, 3, "gaussian", 2, 1)
    assert [(r.failed, r.reason, r.rel_err) for r in batch.records] == [
        (True, "ArithmeticError: overflow", 1.0)
    ] * 2
    with pytest.raises(TypeError, match="bug"):
        run_batch(Failing(TypeError("bug")), 30, 15, 3, "gaussian", 2, 1)


@pytest.mark.parametrize("jobs", [0, -1, 1.0, 2.5, True, "2", None])
def test_run_batch_rejects_jobs_that_is_not_a_positive_int(jobs):
    # checked before any trial runs: the solver is never called
    class Unreached:
        label = "unreached"

        def run(self, phi, y, k):
            raise AssertionError("a trial ran")

    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        run_batch(Unreached(), 30, 15, 3, "gaussian", 2, 1, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        sweep_k([Unreached()], 30, 15, [3], "gaussian", 2, 1, jobs=jobs)


@pytest.mark.parametrize("trials", [0, 2.5, True, "2"])
def test_run_batch_rejects_trials_that_is_not_a_positive_int(trials):
    # checked as jobs is: True ran one trial, 2.5 failed inside range()
    class Unreached:
        label = "unreached"

        def run(self, phi, y, k):
            raise AssertionError("a trial ran")

    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        run_batch(Unreached(), 30, 15, 3, "gaussian", trials, 1)


def test_settings_that_fit_no_instance_abort_the_batch():
    # kmax > M fails every trial alike, so it is an error, not a failed recovery
    with pytest.raises(ValueError, match="exceeds"):
        run_batch(make_solver("aomp", kmax=120), 256, 100, 20, "gaussian", 2, 1)
    with pytest.raises(ValueError, match="exceeds"):
        run_batch(make_solver("hybrid", kmax=120), 256, 100, 20, "gaussian", 2, 1, jobs=2)
    with pytest.raises(ValueError, match="exceeds"):
        phase_transition(make_solver("aomp", kmax=30), 64, [0.2], [0.2], 2, 0)
    # so do baseline settings that need M to fail, serial and in workers
    for spec, message in [
        (make_solver("omp", max_iter=33), "max_iter"),
        (make_solver("fbp", beta=6), "alpha > beta"),
    ]:
        for jobs in (1, 2):
            with pytest.raises(SettingsError, match=message):
                run_batch(spec, 64, 32, 4, "gaussian", 3, 1, jobs=jobs)
    # baseline settings that fit no M fail when the spec is built
    for name, params, message in [
        ("omp", {"max_iter": 0}, "max_iter"),
        ("omp", {"max_iter": 2.5}, "max_iter"),
        ("sp", {"max_iter": 0}, "max_iter"),
        ("iht", {"max_iter": -1}, "max_iter"),
        ("fbp", {"max_iter": 0}, "max_iter"),
        ("fbp", {"alpha": 1}, "alpha > beta"),
        ("fbp", {"alpha": 3, "beta": 3}, "alpha > beta"),
        ("fbp", {"alpha": 2.7, "beta": 1.2}, "alpha"),
        ("mmp-df", {"branching": 0}, "branching"),
        ("mmp-df", {"max_paths": 0}, "max_paths"),
        ("iht", {"step": float("nan")}, "step"),
        ("iht", {"step": float("inf")}, "step"),
    ]:
        with pytest.raises(SettingsError, match=message):
            make_solver(name, **params)


def test_batches_pair_instances_across_solvers():
    a = run_batch(make_solver("omp"), 40, 20, 4, "gaussian", 6, 99)
    b = run_batch(make_solver("sp"), 40, 20, 4, "gaussian", 6, 99)
    assert [r.seed for r in a.records] == [r.seed for r in b.records]
    assert len(set(r.seed for r in a.records)) == 6
    # the recorded seed regenerates the instance the solver saw
    rec = a.records[2]
    assert rec.seed == derive_seed(99, "trial", 2)
    assert (rec.n, rec.m, rec.k, rec.ensemble) == (40, 20, 4, "gaussian")


def test_batch_aggregates_and_determinism():
    one = run_batch(make_solver("aomp", kmax=10), 48, 24, 4, "gaussian", 8, 5)
    two = run_batch(make_solver("aomp", kmax=10), 48, 24, 4, "gaussian", 8, 5)
    assert [r.rel_err for r in one.records] == [r.rel_err for r in two.records]
    assert one.trials == 8
    assert one.rate == pytest.approx(np.mean([r.exact for r in one.records]))
    assert one.anmse == pytest.approx(np.mean([r.rel_err**2 for r in one.records]))
    assert one.mean_time_ms > 0


def test_parallel_batch_matches_serial():
    serial = run_batch(make_solver("omp"), 40, 20, 4, "gaussian", 6, 31, jobs=1)
    parallel = run_batch(make_solver("omp"), 40, 20, 4, "gaussian", 6, 31, jobs=2)
    assert [r.seed for r in serial.records] == [r.seed for r in parallel.records]
    assert [r.rel_err for r in serial.records] == [r.rel_err for r in parallel.records]


def test_a_k_the_solver_cannot_take_aborts_the_batch():
    # every trial would fail alike, so it is an error, not a failed recovery
    with pytest.raises(SettingsError, match="min"):
        run_batch(make_solver("sp"), 20, 10, 6, "gaussian", 3, 1)  # K > M/2
    for name in ("hybrid", "mmp-df"):
        with pytest.raises(SettingsError, match="<= M"):
            run_batch(make_solver(name), 30, 10, 12, "gaussian", 2, 1)
    with pytest.raises(SettingsError, match="<= N"):
        make_solver("iht").run(np.eye(4), np.ones(4), 5)
    # a phase cell at K = 13 > M/2 = 8 is not a cell SP failed to recover:
    # it is marked not applicable and left out of the fit
    curve = phase_transition(make_solver("sp"), 32, [0.5], [0.3, 0.8], 2, 1)
    taken, refused = curve.cells
    assert (taken.k, refused.k) == (5, 13)
    assert taken.successes is not None and refused.successes is None and refused.rate is None
    (point,) = curve.points
    assert (point.rho_star, point.censored) == fit_rho_star([0.3], [taken.successes], [2])
    # a column with no cell SP can take is censored n/a; K = 3 <= M/2 = 3
    # at M = 6, K = 9 > 8 at M = 16
    curve = phase_transition(make_solver("sp"), 32, [0.2, 0.5], [0.55], 2, 1)
    assert [c.k for c in curve.cells] == [3, 9]
    assert curve.points[0].censored != "n/a"
    assert (curve.points[1].rho_star, curve.points[1].censored) == (None, "n/a")
    # a grid with no such cell is an error
    with pytest.raises(SettingsError, match="min"):
        phase_transition(make_solver("sp"), 32, [0.5], [0.8], 2, 1)


def test_record_files_round_trip(tmp_path):
    batch = run_batch(make_solver("omp"), 30, 15, 3, "uniform", 4, 11)
    csv_path = tmp_path / "trials.csv"
    write_records_csv(batch.records, csv_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "solver", "seed", "N", "M", "K", "ensemble", "exact", "rel_err", "time_ms",
        "failed", "reason",
    ]
    assert rows[1][9:] == ["0", batch.records[0].reason]
    assert len(rows) == 5
    # rel_err survives the trip at full precision
    assert float(rows[1][7]) == batch.records[0].rel_err


def test_sweep_runs_each_solver_on_shared_instances(tmp_path):
    solvers = [make_solver("omp"), make_solver("aomp", kmax=10)]
    result = sweep_k(solvers, 48, 24, [3, 5], "gaussian", 4, 7)
    assert sorted(result.batches) == [3, 5]
    for k in (3, 5):
        seeds = {
            label: [r.seed for r in batch.records]
            for label, batch in result.batches[k].items()
        }
        assert seeds["omp"] == seeds["amul-aompe"]
    rows = result.summary_rows()
    assert len(rows) == 4
    path = tmp_path / "summary.csv"
    result.write_summary_csv(path)
    with open(path) as fh:
        assert len(list(csv.reader(fh))) == 5
    with pytest.raises(ValueError):
        sweep_k([make_solver("omp"), make_solver("omp")], 48, 24, [3], "gaussian", 2, 7)
    # a repeated K would run its batch twice and keep one
    for k_values in ([3, 3], [3, 5, 3.0]):
        with pytest.raises(ValueError, match="k values must be unique"):
            sweep_k([make_solver("omp")], 40, 20, k_values, "gaussian", 2, 1)


class _NoTrial:
    """A solver that fails the test if a trial reaches it."""

    label = "no-trial"

    def run(self, phi, y, k):
        raise AssertionError("a trial ran")


@pytest.mark.parametrize("seed", [2.5, True, np.float64(2.0), "2"], ids=repr)
def test_a_seed_that_is_not_an_int_is_rejected_before_any_trial_runs(seed):
    # a base seed of 2.5 ran the trials of base seed 2, and
    # synthetic_image(seed=2.7) drew seed 2's image
    pattern = r"^seed must be an integer, got %s$" % re.escape(repr(seed))
    for call in (
        lambda: derive_seed(seed, "trial", 0),
        lambda: substream(seed, "matrix"),
        lambda: run_batch(_NoTrial(), 20, 10, 2, "gaussian", 2, seed),
        lambda: sweep_k([_NoTrial()], 20, 10, [2], "gaussian", 2, seed),
        lambda: phase_transition(_NoTrial(), 16, [0.5], [0.25], 2, seed),
        lambda: synthetic_image(8, seed=seed),
    ):
        with pytest.raises(ValueError, match=pattern):
            call()


@pytest.mark.parametrize("label", ["amul-aompk", "mul-aompk", "aomp"])
@pytest.mark.parametrize("k", [6.5, True, 0], ids=repr)
def test_a_search_k_that_is_not_a_count_raises_a_settings_error_naming_k(label, k):
    # K = 6.5 ran as K = 6 and True as one atom, and under residue
    # termination K = 8.5 failed on a float kmax the caller never gave
    ens, inst = gen_problem(10, 20, 3, "gaussian", 1)
    with pytest.raises(SettingsError, match=r"^k must be an integer >= 1, got %s$" % k):
        make_solver(label).run(ens.phi, inst.y, k)
    with pytest.raises(SettingsError, match=r"^k must be an integer >= 1, got "):
        AompConfig.sparsity_based(k)
    # past M the search's own fit check answers, as before
    with pytest.raises(SettingsError, match=r"^kmax = 11 exceeds the number of measurements"):
        make_solver("amul-aompk").run(ens.phi, inst.y, 11)


def test_sweep_k_rejects_a_fractional_k_by_name_before_any_batch_runs():
    # K = 2.5 ran, and was recorded, as K = 2
    with pytest.raises(ValueError, match=r"^k must be an integer >= 1, got 2.5$"):
        sweep_k([_NoTrial()], 20, 10, [3, 2.5], "gaussian", 2, 1)


@pytest.mark.parametrize("label", sorted(SOLVERS))
def test_every_solver_checks_the_problem_before_its_settings(label):
    # an empty phi fails the one input check, not a setting sized from it
    solver = make_solver(label)
    for phi, y in [(np.zeros((5, 0)), np.ones(5)), (np.zeros((0, 5)), np.zeros(0))]:
        with pytest.raises(ValueError, match="at least one row and one column") as caught:
            solver.run(phi, y, 1)
        assert not isinstance(caught.value, SettingsError)
    ens, inst = gen_problem(20, 40, 3, "gaussian", 5)
    as_arrays = solver.run(ens.phi, inst.y, 3).to_dict(include_times=False)
    as_lists = solver.run(ens.phi.tolist(), inst.y.tolist(), 3).to_dict(include_times=False)
    assert as_lists == as_arrays


def test_fit_rho_star_step_data_lands_in_bracket():
    rhos = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    star, censored = fit_rho_star(rhos, [30, 30, 30, 30, 0, 0], [30] * 6)
    assert censored is None
    assert 0.4 <= star <= 0.5


def test_fit_rho_star_logistic_data():
    # draws from a known logistic curve with midpoint 0.37
    rhos = np.linspace(0.1, 0.7, 13)
    rng = np.random.default_rng(0)
    trials = 400
    succ = rng.binomial(trials, 1 / (1 + np.exp((rhos - 0.37) * 25)))
    star, censored = fit_rho_star(rhos, succ, [trials] * 13)
    assert censored is None
    assert abs(star - 0.37) < 0.03


def test_logistic_fit_takes_a_steep_but_finite_slope():
    # rates drawn exactly from a logistic of slope -500 around 0.3, on 1000
    # trials a point: the fit converges to a slope of about -500, which is
    # steep but far from the runaway slopes of separated data
    rhos = [0.296, 0.298, 0.300, 0.302, 0.304]
    successes, trials = [881, 731, 500, 269, 119], [1000] * 5
    theta = _logistic_mle(rhos, successes, trials)
    assert theta is not None
    assert -510.0 < theta[1] < -490.0
    assert fit_rho_star(rhos, successes, trials) == (-theta[0] / theta[1], None)


@pytest.mark.parametrize("theta, star", [((0.1, -1.0), 0.1), ((0.3, -1.0), 0.3)])
def test_fit_rho_star_takes_a_crossing_at_either_end_of_the_grid(monkeypatch, theta, star):
    # a logistic crossing that falls exactly on the first or the last rho
    # tested lies inside the grid, so it is returned uncensored
    monkeypatch.setattr(experiments, "_logistic_mle", lambda *args: np.array(theta))
    assert fit_rho_star([0.1, 0.2, 0.3], [20, 10, 0], [20] * 3) == (star, None)


def test_fit_rho_star_censoring():
    rhos = [0.1, 0.2, 0.3]
    star, censored = fit_rho_star(rhos, [50, 50, 50], [50] * 3)
    assert star is None and censored == "high"
    star, censored = fit_rho_star(rhos, [0, 0, 0], [50] * 3)
    assert star is None and censored == "low"
    with pytest.raises(ValueError):
        fit_rho_star([], [], [])


def test_fit_rho_star_is_order_insensitive():
    rhos = [0.5, 0.1, 0.3, 0.6, 0.2, 0.4]
    succ = [0, 30, 30, 0, 30, 28]
    fwd = fit_rho_star(rhos, succ, [30] * 6)
    srt = fit_rho_star(sorted(rhos), [30, 30, 30, 28, 0, 0], [30] * 6)
    assert fwd == srt


def test_phase_transition_tiny_grid(tmp_path):
    curve = phase_transition(
        make_solver("omp"), 32, [0.5], [0.1, 0.3, 0.5, 0.7, 0.9], 12, 19
    )
    assert curve.solver == "omp"
    assert len(curve.cells) == 5
    assert len(curve.points) == 1
    point = curve.points[0]
    if point.rho_star is not None:
        assert 0.1 <= point.rho_star <= 0.9
    # cell geometry follows the grid definition
    for cell in curve.cells:
        assert cell.m == 16
        assert cell.k == min(16, max(1, round(cell.rho * 16)))
    grid_path = tmp_path / "grid.csv"
    points_path = tmp_path / "points.csv"
    curve.write_grid_csv(grid_path)
    curve.write_points_csv(points_path)
    with open(grid_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "rho", "M", "K", "successes", "trials", "rate"]
    assert len(rows) == 6
    with open(points_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "rho_star", "censored", "trials"]


def test_phase_transition_validates_grids():
    with pytest.raises(ValueError):
        phase_transition(make_solver("omp"), 32, [], [0.5], 5, 1)
    with pytest.raises(ValueError):
        phase_transition(make_solver("omp"), 32, [1.5], [0.5], 5, 1)


def test_a_spec_keeps_its_config_only_when_no_setting_waits_for_the_instance():
    spec = make_solver("aomp", kmax=20, alpha_amul=0.85)
    assert spec.config == AompConfig(kmax=20, alpha_amul=0.85)
    assert make_solver("hybrid", kmax=9, branch=3).config == AompConfig(kmax=9, branch=3)
    # kmax "auto" waits for M and N, sparsity termination for k
    for waits in [
        make_solver("aomp"), make_solver("mul-aompe", kmax="auto"), make_solver("hybrid"),
        make_solver("amul-aompk"), make_solver("hybrid", termination="sparsity"),
        make_solver("omp"),
    ]:
        assert waits.config is None
    # the stored config is no init argument and takes no part in equality,
    # repr or pickling
    assert make_solver("amul-aompe", **spec.params) == spec
    assert "config" not in repr(spec)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and copy.config == spec.config
    with pytest.raises(TypeError):
        experiments.SolverSpec("amul-aompe", {}, "", AompConfig())


def _for_problem_twin(spec):
    """The spec with its stored config dropped: its `run` builds the config
    per instance by `AompConfig.for_problem`."""
    twin = pickle.loads(pickle.dumps(spec))
    twin.config = None
    return twin


@pytest.mark.parametrize("name, params", [
    ("aomp", {"kmax": 20, "alpha_amul": 0.85}),
    ("mul-aompe", {"kmax": 14, "max_paths": 40}),
    ("hybrid", {"kmax": 16, "cost_model": "mul"}),
])
def test_a_stored_config_gives_the_for_problem_outputs_bit_for_bit(name, params):
    spec = make_solver(name, **params)
    assert spec.config is not None
    twin = _for_problem_twin(spec)
    for ensemble, seed in [("gaussian", 1), ("cars", 2), ("uniform", 3), ("gaussian", 4)]:
        ens, inst = gen_problem(24, 64, 8, ensemble, seed)
        got, want = spec.run(ens.phi, inst.y, 8), twin.run(ens.phi, inst.y, 8)
        assert got.to_dict(include_times=False) == want.to_dict(include_times=False)
        assert got.xhat.tobytes() == want.xhat.tobytes()
    # kmax > M raises the same SettingsError on both paths
    ens, inst = gen_problem(12, 64, 3, "gaussian", 5)
    errors = []
    for solver in (spec, twin):
        with pytest.raises(SettingsError) as caught:
            solver.run(ens.phi, inst.y, 3)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] and "exceeds the number of measurements" in errors[0]


def test_a_parallel_batch_of_a_stored_config_matches_serial():
    spec = make_solver("aomp", kmax=12)
    assert spec.config is not None
    serial = run_batch(spec, 48, 24, 5, "gaussian", 4, 17, jobs=1)
    parallel = run_batch(spec, 48, 24, 5, "gaussian", 4, 17, jobs=2)
    assert [{**vars(r), "time_ms": None} for r in serial.records] == [
        {**vars(r), "time_ms": None} for r in parallel.records
    ]
