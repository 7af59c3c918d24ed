"""The names the benchmark's tracer patches must exist in the program.

perfbench/tracer.py wraps functions by (module, name); if a refactor drops
or renames one, every traced benchmark run breaks. These tests load the
benchmark modules by path, without changing them.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from strandseg import metrics, pipeline
from strandseg.synth import SceneSpec, generate_scene

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    """Execute perfbench/<name>.py as module `name`, registered until the test ends."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def tracer(monkeypatch):
    return _load(monkeypatch, "tracer")


def test_every_span_resolves(tracer):
    for module_name, attr, *_ in tracer.SPANS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_install_then_uninstall_restores_originals(tracer):
    originals = [(module_name, attr, getattr(importlib.import_module(module_name), attr))
                 for module_name, attr, *_ in tracer.SPANS]
    t = tracer.Tracer()
    t.install()
    try:
        patched = [getattr(importlib.import_module(m), a) for m, a, _ in originals]
        assert all(p is not o for p, (_, _, o) in zip(patched, originals))
    finally:
        t.uninstall()
    for module_name, attr, original in originals:
        assert getattr(importlib.import_module(module_name), attr) is original


def test_workloads_import(monkeypatch):
    # workloads.py imports its sibling `desk` by plain name
    _load(monkeypatch, "desk")
    workloads = _load(monkeypatch, "workloads")
    assert {"Train64", "Eval64", "Gradcheck16"} <= set(vars(workloads))


def test_traced_run_matches_untraced(monkeypatch, tracer):
    # Name resolution alone misses a hook that no longer fits the call it
    # wraps; run the program under the tracer and compare.
    _load(monkeypatch, "desk")
    workloads = _load(monkeypatch, "workloads")
    truth = generate_scene(SceneSpec(), 1).instances
    seg_prob, emb = workloads.oracle_maps(truth, np.random.default_rng(0))
    cfg = workloads.run_config_from_dict(workloads.DESK_CONFIG).pipeline_config()

    def run():
        instances, fg, diag = pipeline.instances_from_maps(seg_prob, emb, cfg)
        return instances, fg, diag, metrics.instance_ap_ar(instances, truth)

    want = run()
    t = tracer.Tracer()
    t.install()
    try:
        got = run()
    finally:
        t.uninstall()
    (want_inst, want_fg, want_diag, want_ap), (inst, fg, diag, ap) = want, got
    assert [m.tobytes() for m in inst.masks] == [m.tobytes() for m in want_inst.masks]
    assert fg.tobytes() == want_fg.tobytes()
    assert diag.min_similarity.tobytes() == want_diag.min_similarity.tobytes()
    assert diag.centers.tobytes() == want_diag.centers.tobytes()
    assert ap == want_ap
    assert t.counters["clustering.clusters"] == diag.clusters >= 2
    assert t.counters["pipeline.fg_pixels"] == diag.fg_pixels > 0
    # the hook counts points with len() of mean_shift's first argument
    assert t.counters["clustering.points"] == diag.fg_pixels
    assert t.calls["metrics.greedy_match_counts"] == 1
    assert t.calls["intersections.build_instances"] == t.calls["intersections.min_similarity"] == 1
