"""The benchmark's trace points exist and see the calls they are meant to.

perfbench/tracing.py wraps functions by module and attribute name, and
keys its per-layer metrics to those names. A rename here fails this test
instead of crashing or silently emptying a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from cascadepass import protocol
from cascadepass.sample_cascades import addition_blocks, four_stage_cascade

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_points_resolve_and_see_both_design_drivers(monkeypatch):
    tracing = load_tracing()
    for layer, attr in tracing.SPANS + (tracing.LBFGS,):
        module = importlib.import_module(f"cascadepass.{layer}")
        assert callable(getattr(module, attr, None)), f"{layer}.{attr}"

    points = {"local_verify": protocol, "local_synthesize": protocol}
    layer, attr = tracing.LBFGS
    points[attr] = importlib.import_module(f"cascadepass.{layer}")
    counts = dict.fromkeys(points, 0)
    for name, module in points.items():
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    state = protocol.run_cascade_design(four_stage_cascade(3))
    assert counts["local_verify"] == 3 and counts["local_synthesize"] >= 1
    assert counts[attr] >= 1
    before = dict(counts)
    protocol.add_subsystem(state, *addition_blocks())
    assert counts["local_verify"] == before["local_verify"] + 1
    assert counts["local_synthesize"] == before["local_synthesize"] + 1
