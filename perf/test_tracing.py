import sys
import types

import pytest

from tracing import Target, Tracer, request_layers

MODULE = "repro._perf_tracing_fixture"


SOURCE = """
import time


class Engine:
    def execute(self, queries):
        time.sleep(0.002)
        return [leaf(q) for q in queries]


def leaf(q):
    time.sleep(0.001)
    return q


def reshaped():
    return None


def outer(n):
    time.sleep(0.003)
    return Engine().execute(list(range(n)))
"""


@pytest.fixture
def fixture_module():
    # Named into the program's namespace: the tracer patches only modules
    # whose name starts with ``repro``.
    mod = types.ModuleType(MODULE)
    exec(SOURCE, mod.__dict__)
    # A second module that imported ``leaf`` by name, as program modules do.
    user = types.ModuleType(MODULE + "_user")
    user.leaf = mod.leaf
    sys.modules[MODULE] = mod
    sys.modules[MODULE + "_user"] = user
    yield mod, user
    del sys.modules[MODULE], sys.modules[MODULE + "_user"]


def targets():
    return (
        Target(f"{MODULE}:outer", "imm"),
        Target(f"{MODULE}:Engine.execute", "service",
               measure=lambda a, k, r: {"queries": len(a[1])},
               attrs=lambda a, k, r: {"ids": list(a[1])}),
        Target(f"{MODULE}:leaf", "kernels", aggregate=True,
               measure=lambda a, k, r: {"leaves": 1}),
        Target(f"{MODULE}:gone", "sketch"),
        # Its counter expects a result shape the function no longer has.
        Target(f"{MODULE}:reshaped", "sketch", measure=lambda a, k, r: {"n": r.size}),
    )


def test_self_times_add_up_to_the_outermost_calls(fixture_module):
    mod, user = fixture_module
    originals = mod.leaf, mod.outer, mod.Engine.__dict__["execute"]
    tracer = Tracer()
    tracer.install(targets())
    assert user.leaf is not originals[0]  # patched where imported by name too
    try:
        with tracer.op("op"):
            mod.outer(4)
        with tracer.paused():
            mod.outer(2)
        assert mod.reshaped() is None
    finally:
        tracer.uninstall()
    assert (mod.leaf, mod.outer, mod.Engine.__dict__["execute"]) == originals
    assert user.leaf is originals[0]

    report = tracer.report()
    assert report["missing"] == [f"{MODULE}:gone", "reshaped"]
    self_s = report["self_s"]
    assert set(self_s) == {"client", "imm", "service", "kernels", "sketch"}
    assert sum(self_s.values()) == pytest.approx(report["root_s"], rel=1e-9)
    assert self_s["kernels"] >= 0.004 and self_s["imm"] >= 0.003
    assert report["counts"] == {"queries": 4, "leaves": 4}
    assert report["names"]["leaf"]["calls"] == 4  # paused calls not counted
    assert report["paused_s"] > 0.005

    spans = {s["name"]: s for s in tracer.spans()}
    assert "leaf" not in spans  # aggregated, not kept as spans
    assert spans["Engine.execute"]["ids"] == [0, 1, 2, 3]
    root = spans["op"]
    assert sum(root["layers"].values()) == pytest.approx(root["t1"] - root["t0"])
    assert root["layers"]["kernels"] == pytest.approx(self_s["kernels"])


def test_reset_forgets_what_was_recorded(fixture_module):
    mod, _ = fixture_module
    tracer = Tracer()
    tracer.install(targets())
    try:
        mod.outer(1)
        tracer.reset()
        mod.outer(2)
    finally:
        tracer.uninstall()
    assert tracer.report()["counts"] == {"queries": 2, "leaves": 2}


def test_request_parts_add_up_to_latency():
    spans = [{
        "name": "QueryEngine.execute", "t0": 10.0, "t1": 10.030,
        "ids": ["a", "b"], "layers": {"service": 0.010, "selection": 0.020},
    }]
    samples = [
        {"id": "a", "status": "ok", "due": 0.0, "sent": 0.001, "done": 0.060,
         "server_s": 0.050},
        {"id": "b", "status": "ok", "due": 0.010, "sent": 0.010, "done": 0.065,
         "server_s": 0.045},
        {"id": "c", "status": "overloaded", "due": 0.0, "sent": 0.0,
         "done": 0.001, "server_s": 0.0},
    ]
    split = request_layers(samples, spans)
    assert split["joined"] == 2 and split["batch_sizes"] == [2, 2]
    total = sum(split["self_s"].values())
    assert total == pytest.approx(split["latency_s"]) == pytest.approx(0.060 + 0.055)
    assert split["self_s"]["gateway"] == pytest.approx(0.020 + 0.015)
    assert split["self_s"]["client"] == pytest.approx(0.001)
