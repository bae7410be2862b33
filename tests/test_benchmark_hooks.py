"""The call sites the benchmark's tracer wraps by name still exist, and a
traced op still feeds every hook that reads their arguments and results."""

import importlib
import importlib.util
from pathlib import Path

from treepursuit import experiments, imaging
from treepursuit.siggen import gen_problem

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves_to_a_callable():
    tracer = load_tracer()
    assert tracer.TARGETS
    for layer, module_name, path in tracer.TARGETS:
        importlib.import_module(module_name)
        owner, attr = tracer._resolve(module_name, path)
        assert callable(getattr(owner, attr, None)), layer


class Keeper:
    """Solver handed to recover_image that keeps every block's output."""

    def __init__(self, spec):
        self.spec = spec
        self.label = spec.label
        self.outs = []

    def run(self, phi, y, k):
        out = self.spec.run(phi, y, k)
        self.outs.append(out)
        return out


def test_one_traced_op_runs_every_hook():
    # the solvers are reached through their modules, as the benchmark
    # reaches them, so every wrapper sees its calls
    tracer = load_tracer()
    for _, module_name, _ in tracer.TARGETS:
        importlib.import_module(module_name)

    def current():
        return {layer: getattr(*tracer._resolve(m, p)) for layer, m, p in tracer.TARGETS}

    originals = current()
    ens, inst = gen_problem(32, 64, 6, "gaussian", 5)
    image = imaging.synthetic_image(16, seed=3)
    specs = [experiments.make_solver(s) for s in ("aomp", "hybrid", "omp", "sp")]
    keeper = Keeper(experiments.make_solver("aomp", kmax=20, alpha_amul=0.85))
    traced = tracer.Tracer(count_ops=1)
    traced.install()
    try:
        traced.begin_op(0)
        outs = [spec.run(ens.phi, inst.y, inst.k) for spec in specs]
        imaging.recover_image(image, 12, 40, keeper, 0)
        traced.end_op()
    finally:
        traced.remove()
    restored = current()
    assert all(restored[layer] is fn for layer, fn in originals.items())
    summary = traced.summary()
    for layer in tracer.AFTER:
        assert summary[layer]["calls_window"] > 0, layer
    # a hybrid that OMP settles never starts the search
    searches = outs[:2] + keeper.outs
    iterations = sum(o.iterations for o in searches if o.hybrid_stage != "omp")
    assert iterations > 0
    assert traced.counts["astar.iterations"] == iterations
