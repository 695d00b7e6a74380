"""Span recorder for the traced benchmark pass.

The recorder wraps the module attributes through which the engine's layers
call each other: what ``cjp`` calls in ``burau`` and ``weyl``, what the
level-one generator calls inside ``burau``, and ``walk_products`` on the
active kernel backend. Each wrapped call records a span (name, start, end,
parent span, job id) in memory, and some update per-layer counters from
their arguments and result. Nothing in the engine is edited: the wrappers
are installed on entry and the originals restored on exit, so an untraced
pass runs the unmodified code.

Counting costs time of its own. That time is measured and subtracted from
every enclosing span, so self times describe the engine, not the counters.
"""
from __future__ import annotations

import sys
import traceback
from functools import wraps
from time import perf_counter

STACK_MULTIPLY = "weyl.multiply_walk_sums"
KERNEL = "kernels.walk_products"


def _bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.terms.values()), default=0)


def _observe_job(counts, args, result):
    counts["cjp.heights"] += result.heights_summed
    counts["laurent.coeff_bits_max"] = max(counts["laurent.coeff_bits_max"], _bits(result.polynomial))


def _observe_generator(counts, args, result):
    counts["burau.generator_calls"] += 1
    counts["burau.level_one_walks"] += len(result)


def _observe_quantum_det(counts, args, result):
    counts["burau.quantum_det_calls"] += 1


def _observe_multiply(counts, args, result):
    counts["weyl.pairs_tried"] += len(args[0]) * len(args[1])
    counts["weyl.keys_out"] += len(result)


def _observe_evaluate(counts, args, result):
    stack = args[0]
    counts["weyl.monomials_evaluated"] += len(stack)
    counts["cjp.stack_len_max"] = max(counts["cjp.stack_len_max"], len(stack))
    counts["weyl.eval_factors"] += sum(sum(key[2::3]) for key in stack.entries)
    counts["weyl.eval_terms_out"] += len(result)
    bits = max((_bits(c) for c in stack.entries.values()), default=0)
    counts["laurent.coeff_bits_max"] = max(counts["laurent.coeff_bits_max"], bits, _bits(result))


def _observe_kernel(counts, args, result):
    counts["kernels.walk_products_calls"] += 1


# (target, attribute, span name, counter update). Targets are "cjp",
# "burau" and "kernels" (the active backend module).
HOOKS = (
    ("cjp", "colored_jones", "cjp.colored_jones", _observe_job),
    ("cjp", "choose_orientation", "cjp.choose_orientation", None),
    ("cjp", "walk_generator", "burau.walk_generator", _observe_generator),
    ("cjp", "multiply_walk_sums", STACK_MULTIPLY, _observe_multiply),
    ("cjp", "evaluate_walk_sum", "weyl.evaluate_walk_sum", _observe_evaluate),
    ("burau", "braid_matrix", "burau.braid_matrix", None),
    ("burau", "quantum_det", "burau.quantum_det", _observe_quantum_det),
    ("kernels", "walk_products", KERNEL, _observe_kernel),
)

COUNTERS = (
    "burau.generator_calls",
    "burau.level_one_walks",
    "burau.quantum_det_calls",
    "kernels.walk_products_calls",
    "weyl.pairs_tried",
    "weyl.keys_out",
    "weyl.monomials_evaluated",
    "weyl.eval_factors",
    "weyl.eval_terms_out",
    "laurent.coeff_bits_max",
    "cjp.heights",
    "cjp.stack_len_max",
)


def hook_targets(walkjones) -> dict:
    """The objects whose attributes the hooks replace; missing ones are left out."""
    targets = {}
    for name in ("cjp", "burau"):
        if hasattr(walkjones, name):
            targets[name] = getattr(walkjones, name)
    kernels = getattr(walkjones, "kernels", None)
    if kernels is not None and hasattr(kernels, "active"):
        targets["kernels"] = kernels.active()
    return targets


class SpanRecorder:
    """Context manager that records spans while its hooks are installed.

    Spans are tuples (name, start, end, parent index or -1, job id,
    counting seconds inside); ``job`` is set by the caller before each job.
    A hook whose target attribute does not exist is listed in ``absent``;
    a counter update that raises is listed in ``broken``. Neither stops
    the run.
    """

    def __init__(self, walkjones, hooks=HOOKS):
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = None
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self._frames: list = []
        self._saved: list = []
        self._targets = hook_targets(walkjones)
        self._hooks = hooks

    def __enter__(self):
        for target, attr, name, observe in self._hooks:
            obj = self._targets.get(target)
            original = getattr(obj, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(name, original, observe))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, observe):
        spans = self.spans
        frames = self._frames

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1] if frames else None
            frame = [len(spans), 0.0]  # span index, counting seconds inside
            spans.append(None)
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                spans[frame[0]] = (name, start, end, parent[0] if parent else -1, self.job, frame[1])
            spent = frame[1]
            if observe is not None:
                try:
                    observe(self.counts, args, result)
                except Exception:
                    if name not in self.broken:
                        print(f"counter for {name} failed:", file=sys.stderr)
                        traceback.print_exc()
                    self.broken.add(name)
                spent += perf_counter() - end
            if parent is not None:
                parent[1] += spent
            return result

        return wrapper


# The stages that partition a job's traced time: (name, span, which time).
STAGES = (
    ("cjp.loop", "cjp.colored_jones", "self"),
    ("cjp.orientation", "cjp.choose_orientation", "self"),
    ("burau.generator", "burau.walk_generator", "total"),
    ("weyl.multiply", STACK_MULTIPLY, "total"),
    ("weyl.evaluate", "weyl.evaluate_walk_sum", "total"),
)


def layer_times(spans, per_job: bool = False) -> dict:
    """Per-layer seconds: {"self", "total", "calls"} with counting time removed.

    Kernel spans are split by caller: under the stack multiply they are
    "kernels.walk_products.stack", anywhere else (the level-one generator)
    "kernels.walk_products.generator". With ``per_job`` the result maps each
    job id to such a dict.
    """
    clean = [end - start - counting for _, start, end, _, _, counting in spans]
    children = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]] += clean[i]
    jobs: dict = {}
    for i, (name, _, _, parent, job, _) in enumerate(spans):
        if name == KERNEL:
            caller = spans[parent][0] if parent >= 0 else ""
            name += ".stack" if caller == STACK_MULTIPLY else ".generator"
        layers = jobs.setdefault(job if per_job else None, {})
        layer = layers.setdefault(name, {"self": 0.0, "total": 0.0, "calls": 0})
        layer["self"] += clean[i] - children[i]
        layer["total"] += clean[i]
        layer["calls"] += 1
    return jobs if per_job else jobs.get(None, {})


def stage_shares(layers: dict) -> dict[str, float]:
    """Each stage's share of the traced job time. A job runs on one thread,
    so every stage is on its blocking path and the shares sum to 1."""
    job = layers.get("cjp.colored_jones", {}).get("total", 0.0)
    return {
        stage: layers.get(span, {}).get(key, 0.0) / job if job else 0.0
        for stage, span, key in STAGES
    }
