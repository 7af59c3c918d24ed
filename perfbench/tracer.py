"""Spans and counters around strandseg's public functions, for the traced run.

`Tracer.install` replaces a function's name in the namespace of each module
that calls it with a timing wrapper, and `uninstall` puts the originals back.
No file of the program changes, and the untraced run never installs it.

A span's self time is its duration minus the time its child spans cover.
`covered_s` sums the spans that have no parent span, so the benchmark can
report how much of its timed work no span covers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _forward_flops(tracer, args, kwargs, result):
    # Multiply-adds of the three 3x3 convolutions and the two 1x1 heads,
    # computed from the parameter shapes and the image size (not measured).
    params, image = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "image")
    h, w = image.shape
    half = (h // 2) * (w // 2)
    macs = (h * w * params["conv1_w"].size + half * params["conv2_w"].size
            + half * params["conv3_w"].size + half * (params["seg_w"].size + params["emb_w"].size))
    tracer.add("network.forward.gflops_computed", 2 * macs / 1e9)


def _mean_shift_counts(tracer, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "fe"))
    seeds = min(n, _arg(args, kwargs, 1, "cfg").seed_cap)
    tracer.add("clustering.points", n)
    tracer.add("clustering.seeds", seeds)
    tracer.add("clustering.clusters", result.k)
    # the dense seeds x points float64 matrices one iteration builds
    tracer.peak("clustering.window_bytes_computed", seeds * n * 8)


def _maps_counts(tracer, args, kwargs, result):
    diag = result[2]
    tracer.add("pipeline.fg_pixels", diag.fg_pixels)
    tracer.add("intersections.multi_assigned_pixels", diag.multi_assigned_pixels)


def _loss_eval(tracer, args, kwargs, result):
    tracer.add("gradcheck.loss_evals", 1)


# (module whose namespace is patched, function name, span, counter hook,
#  parent span under which the call is folded into its parent)
SPANS = (
    ("strandseg.network", "forward_full", "network.forward_full", None, "network.forward"),
    ("strandseg.network", "backward", "network.backward", None, None),
    ("strandseg.network", "discriminative_loss", "network.discriminative_loss", None, None),
    ("strandseg.training", "total_loss_and_grad", "network.total_loss_and_grad", None, None),
    ("strandseg.training", "adamw_step", "optim.adamw_step", None, None),
    ("strandseg.training", "make_training_labels", "synth.make_training_labels", None, None),
    ("strandseg.training", "downsample_labels", "training.downsample_labels", None, None),
    ("strandseg.pipeline", "forward", "network.forward", _forward_flops, None),
    ("strandseg.pipeline", "upsample_bilinear", "grids.upsample_bilinear", None, None),
    ("strandseg.pipeline", "instances_from_maps", "pipeline.instances_from_maps", _maps_counts,
     None),
    ("strandseg.pipeline", "augment_coordinates", "clustering.augment_coordinates", None, None),
    ("strandseg.pipeline", "mean_shift", "clustering.mean_shift", _mean_shift_counts, None),
    ("strandseg.pipeline", "build_instances", "intersections.build_instances", None, None),
    ("strandseg.pipeline", "min_similarity", "intersections.min_similarity", None, None),
    ("strandseg.pipeline", "connected_components", "metrics.connected_components", None, None),
    ("strandseg.metrics", "evaluate_dataset", "metrics.evaluate_dataset", None, None),
    ("strandseg.metrics", "greedy_match_counts", "metrics.greedy_match_counts", None, None),
    ("strandseg.gradcheck", "run_suite", "gradcheck.run_suite", None, None),
    ("strandseg.gradcheck", "total_loss_and_grad", "network.total_loss_and_grad", None, None),
    ("strandseg.gradcheck", "forward_full", "network.forward_full", _loss_eval, None),
    ("strandseg.gradcheck", "discriminative_loss", "network.discriminative_loss", _loss_eval, None),
)


class Tracer:
    """Per-span self time and call counts, plus named counters, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.peaks = defaultdict(float)
        self.covered_s = 0.0
        self._stack = []  # [span name, seconds covered by child spans]
        self._originals = []

    def add(self, name, value):
        self.counters[name] += value

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks[name], value)

    def install(self):
        for module_name, attr, span, hook, fold_under in SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, hook, fold_under))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, span, fn, hook, fold_under):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold_under is not None and stack and stack[-1][0] == fold_under:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                else:
                    self.covered_s += duration
                self.self_s[span] += duration - frame[1]
                self.calls[span] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper
