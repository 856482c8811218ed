"""The benchmark's per-layer tracer still sees every layer it lists.

perfbench/tracing.py finds each traced function in ``sys.modules["resbeam.<layer>"]``
and silently skips a name that is missing there, so a function that moves to
another module, or a module that is never imported, would leave its layer's
counters at zero without an error.  The tracer is read here, not changed.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import resbeam
import resbeam.cli  # as perfbench/runner.py loads the library

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_live_in_their_layer_modules():
    tracing = load_tracing()
    for layer, names in tracing.LAYERS.items():
        getattr(resbeam, layer)  # the workloads reach a layer as rb.<layer>
        home = vars(sys.modules[f"resbeam.{layer}"])
        assert [n for n in names if n not in home] == [], layer


def test_cli_calls_reach_the_traced_layers():
    tracing = load_tracing()
    for layer in tracing.LAYERS:
        getattr(resbeam, layer)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert resbeam.cli.main(["calibrate", "--pstored", "30W", "--eta", "0.61"]) == 0
            assert resbeam.cli.main(["sweep", "--var", "P_in", "--points", "5"]) == 0
            # no dataset rule calls a powerchain kernel: the power command reaches end_to_end
            assert resbeam.cli.main(["power", "--pin", "100W"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.summarise()
    assert metrics["cli.calls"] == 3
    assert metrics["explorer.calls"] == 2  # calibrate_aperture and sweep
    assert metrics["powerchain.calls"] > 0
