"""The traced benchmark wraps library functions by name; keep those names.

`perfbench/tracing.py` lives outside the package and reaches into it by
module and function name, and its simulate_chain counter reads the bound
arguments `trials` and `prime_stream`. A rename there would only surface
when a traced benchmark run fails, so the suite loads the tracer and
installs it.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

import selmerfan.chain
import selmerfan.cli  # noqa: F401  (binds the entry points the tracer rewraps)
import selmerfan.f3geom  # noqa: F401  (cli imports it lazily)
import selmerfan.gl2f3  # noqa: F401
from selmerfan.chain import Distribution, simulate_chain

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
