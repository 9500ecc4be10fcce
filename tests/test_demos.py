import importlib.util
import pathlib

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_demo_names_the_method_nearest_the_bound(capsys):
    # the verdict is read from the sweep's own rows: no ranking of the
    # methods is assumed, only that the named one has the smallest ratio
    rows = load_demo("demo_benchmark").demo_sweep(trials=6)
    out = capsys.readouterr().out
    verdicts = out.split("nearest the bound (smallest mse_t / crlb_t):\n")[1].splitlines()
    sigmas = sorted({r.sigma for r in rows})
    assert len(verdicts) == len(sigmas)
    for sigma, line in zip(sigmas, verdicts):
        ratios = {r.method: r.mse_t / r.crlb_t for r in rows if r.sigma == sigma}
        head, tail = line.split(": ")
        method, ratio = tail.split(" at ")
        assert head == f"  sigma = {sigma:5.2f}"
        assert ratios[method] == min(ratios.values())
        assert ratio == f"{ratios[method]:.3f}"
