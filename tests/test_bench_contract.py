"""The traced benchmark wraps library functions by name; keep those names.

`perfbench/tracing.py` lives outside the package and reaches into it by
module and function name, and its counters read bound arguments (such as
simulate_chain's `trials` and `prime_stream`) and return values. A rename,
a changed return shape or a name the tracer fails to rebind would only
surface when a traced benchmark run fails, so the suite loads the tracer,
installs it and runs small commands under it.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

import selmerfan.chain
import selmerfan.cli  # loads every traced module, so the tracer rebinds names in all of them
from selmerfan.chain import Distribution, simulate_chain
from selmerfan.f3geom import hyperbolic_space

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_installs(tracing):
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert selmerfan.chain.simulate_chain is not simulate_chain
    finally:
        recorder.uninstall()
    assert selmerfan.chain.simulate_chain is simulate_chain


def test_simulate_chain_counter_binds(tracing):
    bound = inspect.signature(simulate_chain).bind(Distribution.point_mass(0), [(1, "split")], 3, 1)
    assert {"trials", "prime_stream"} <= set(bound.arguments)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        selmerfan.chain.simulate_chain(Distribution.point_mass(0), [(1, "split")] * 2, 3, 1)
    finally:
        recorder.uninstall()
    counts = [span[tracing.COUNTS] for span in recorder.spans]
    assert counts == [{"trial_steps": 6, "uniform_bytes_computed": 3 * 5 * 8}]


def test_cli_calls_fire_every_counter(tracing, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SELMERFAN_CACHE_DIR", str(tmp_path / "cache"))
    curves = tmp_path / "curves.csv"
    curves.write_text("label,A,B\nfix,1,1\n")
    curve = ["--curve-file", str(curves), "--label", "fix"]
    commands = [
        ["classify", *curve, "--max-prime", "300"],
        ["fan", *curve, "--m", "2", "--w", "1", "--X", "14", "--growth", "pow:1",
         "--trials", "20", "--seed", "1"],
        # `fan --trials` draws by count and lists nothing; listing the fan
        # keeps the enumerate_fan counter hook bound and run
        ["fan", *curve, "--m", "2", "--w", "1", "--X", "14", "--growth", "pow:1"],
        # a fan replays its elements through simulate_streams, so `simulate`
        # keeps the simulate_chain counter hook bound and run
        ["simulate", "--synthetic", "2x1s", "--trials", "20", "--seed", "1"],
        ["lagrangians", "--dim", "4", "--blocks", "2"],
        ["gl2f3-report"],
    ]
    recorder = tracing.Recorder()
    recorder.install()
    try:
        for argv in commands:
            assert selmerfan.cli.main(argv) == 0, argv
        # no command enumerates subspaces since Lagrangians are built row by
        # row; call it directly so its counter hook is still bound and run
        selmerfan.f3geom.enumerate_subspaces(hyperbolic_space(2), 1)
    finally:
        recorder.uninstall()
    emitted = len(capsys.readouterr().out.encode())
    counted = {span[tracing.NAME] for span in recorder.spans if span[tracing.COUNTS]}
    hooked = {f"{module}.{fn}" for module, fn, count in tracing.TARGETS if count}
    assert hooked <= counted
    metrics = tracing.layer_metrics(recorder.spans, emitted)
    for name in ("fans.enumerate_fan.elements", "f3geom.lagrangians.found",
                 "store.ensure_classified.fresh", "store.load_records.records"):
        assert metrics[name][0] > 0, name
    named = {span[tracing.NAME] for span in recorder.spans}
    assert {"cli.run", "cli.emit"} <= named
