"""Tests of the benchmark's tracing: self-time arithmetic and patch restore.

    python3 -m pytest perfbench
"""

import types

import pytest

import spans


def _tracer(rows):
    """A tracer holding (name, parent, start, end) rows."""
    tracer = spans.Tracer()
    for name, parent, start, end in rows:
        tracer.names.append(name)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    return tracer


NESTED = [
    ("root", -1, 0.0, 10.0),
    ("a", 0, 1.0, 4.0),
    ("b", 0, 5.0, 9.0),
    ("a", 2, 6.0, 7.0),
]


def test_self_time_is_span_minus_children():
    t = _tracer(NESTED)
    assert spans.self_times(t.parents, t.starts, t.ends) == [3.0, 3.0, 3.0, 1.0]


def test_layers_take_unlisted_descendants_and_add_up_to_wall():
    summary = spans.summarize(_tracer(NESTED), layers={"a"}, stages={})
    assert summary["calls"] == {"root": 1, "a": 2, "b": 1}
    # b is not a layer, so its self time stays with the root's (None);
    # the nested a is a layer of its own
    assert summary["self_s"] == {None: 6.0, "a": 4.0}
    assert sum(summary["self_s"].values()) == summary["wall_s"] == 10.0


def test_stages_inherit_from_parent_and_opaque_hides_subtree():
    stages = {"a": "draw", "b": "solve"}
    summary = spans.summarize(_tracer(NESTED), layers=set(), stages=stages)
    assert summary["stage_s"] == {spans.ROOT_STAGE: 3.0, "draw": 4.0, "solve": 3.0}
    hidden = spans.summarize(_tracer(NESTED), layers=set(), stages=stages, opaque={"b"})
    assert hidden["stage_s"] == {spans.ROOT_STAGE: 7.0, "draw": 3.0}


def _module(name, source, **bindings):
    module = types.ModuleType(name)
    module.__dict__.update(bindings)
    exec(source, module.__dict__)
    return module


@pytest.fixture
def package():
    inner = _module("pkg.inner", "def double(x):\n    return 2 * x\n"
                                 "def _private(x):\n    return x\n")
    outer = _module("pkg.outer", "def twice_plus_one(x):\n    return double(x) + 1\n",
                    double=inner.double)

    class Counted:
        def touch(self):
            return "touched"

    return inner, outer, Counted


def test_patch_wraps_every_binding_and_restores_them(package):
    inner, outer, counted_cls = package
    originals = (inner.double, inner._private, outer.twice_plus_one, outer.double,
                 counted_cls.__dict__["touch"])
    tracer = spans.Tracer()
    seen = []
    hooks = {"inner.double": lambda t, args: seen.append(dict(args))}
    counted = [(counted_cls, "touch", "touches")]
    with spans.patched(tracer, [inner, outer], hooks, counted):
        # outer imported double by name; its binding is wrapped too
        assert outer.double is not originals[3]
        assert inner._private is originals[1]
        assert outer.twice_plus_one(3) == 7
        assert counted_cls().touch() == "touched"
    assert tracer.names == ["outer.twice_plus_one", "inner.double"]
    assert tracer.parents == [-1, 0]
    assert seen == [{"x": 3}]
    assert tracer.counts == {"touches": 1}
    assert (inner.double, inner._private, outer.twice_plus_one, outer.double,
            counted_cls.__dict__["touch"]) == originals


def test_patch_restores_bindings_when_the_traced_code_raises(package):
    inner, outer, _ = package
    originals = (inner.double, outer.double, outer.twice_plus_one)
    tracer = spans.Tracer()
    with pytest.raises(TypeError):
        with spans.patched(tracer, [inner, outer]):
            outer.twice_plus_one(None)
    assert (inner.double, outer.double, outer.twice_plus_one) == originals
    # the failing call's spans were still closed
    assert all(end > 0.0 for end in tracer.ends)
