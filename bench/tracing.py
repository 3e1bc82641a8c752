"""Per-layer tracing of fusionval from outside the package.

:class:`Tracer` replaces the public functions named in :data:`LAYERS`
with wrappers that record one span per call: the function's id, the
span that called it, and its start and end on ``time.perf_counter``.
A function is replaced wherever the package binds it, so a name pulled
in by ``from .kfold import make_folds`` in ``fsv`` or ``harness`` is
traced as well as the defining module's own attribute. Spans live in
flat in-memory arrays while the traced code runs and are written out
once, by :meth:`Tracer.save`, after it ends.

A span's self time is its duration minus the durations of the spans it
called directly; the package is single-threaded at ``jobs=1``, so child
spans never overlap one another.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

__all__ = ["LAYERS", "LAYER_FUNCTIONS", "Tracer"]

# module -> public functions whose calls and self time are reported
LAYERS: dict[str, tuple[str, ...]] = {
    "rng": ("derive_stream", "standard_normal"),
    "data": ("generate_dataset",),
    "sampling": ("srs_sample", "holdout_values", "draw_partition_fraction"),
    "kfold": ("make_folds", "kfold_losses", "repeated_kfcv"),
    "estimator": ("fit", "loss"),
    "fsv": ("sampled_kfold_trial", "fsv_run", "compound_measure"),
    "metrics": ("trial_metrics", "summarize"),
    "harness": ("run_experiment", "emit_json", "emit_csv", "report_from_dict"),
}

LAYER_FUNCTIONS: tuple[str, ...] = tuple(
    f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns
)


class Tracer:
    """Wraps the layer functions while active; see the module docstring."""

    def __init__(self) -> None:
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int):
        # Bound methods held in the closure, and try/except rather than
        # try/finally, take the per-call cost from ~500 ns to ~370 ns.
        names, ends, stack = self.names, self.ends, self._stack
        add_name, add_parent = names.append, self.parents.append
        add_start, add_end = self.starts.append, ends.append
        push, pop = stack.append, stack.pop
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            add_name(name_id)
            add_parent(stack[-1])
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                pop()
                raise
            ends[idx] = clock()
            pop()
            return result

        return traced

    def __enter__(self) -> "Tracer":
        import fusionval  # noqa: F401  (loads every submodule)

        package = [
            mod for key, mod in sys.modules.items()
            if key == "fusionval" or key.startswith("fusionval.")
        ]
        for name_id, qualified in enumerate(LAYER_FUNCTIONS):
            module_name, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"fusionval.{module_name}"], fn_name)
            wrapper = self._wrap(original, name_id)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, with the function names, to an ``.npz`` file."""
        np.savez_compressed(
            path, functions=np.array(LAYER_FUNCTIONS), **self.arrays()
        )

    def summary(self) -> dict[str, tuple[int, float]]:
        """``{"kfold.make_folds": (calls, self_s), ...}`` over all spans."""
        spans = self.arrays()
        names, parents = spans["names"], spans["parents"]
        dur = spans["ends"] - spans["starts"]
        nested = parents >= 0
        child_s = np.bincount(
            parents[nested], weights=dur[nested], minlength=len(dur)
        )
        width = len(LAYER_FUNCTIONS)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=dur - child_s, minlength=width)
        return {
            fn: (int(calls[i]), float(self_s[i]))
            for i, fn in enumerate(LAYER_FUNCTIONS)
        }

    def child_seconds(self, parent_fn: str, exclude: tuple[str, ...]) -> float:
        """Summed duration of the direct children of ``parent_fn`` spans,
        leaving out children named in ``exclude``."""
        spans = self.arrays()
        names, parents = spans["names"], spans["parents"]
        dur = spans["ends"] - spans["starts"]
        parent_id = LAYER_FUNCTIONS.index(parent_fn)
        skip = [LAYER_FUNCTIONS.index(fn) for fn in exclude]
        nested = parents >= 0
        under = np.zeros(len(names), dtype=bool)
        under[nested] = names[parents[nested]] == parent_id
        under &= ~np.isin(names, skip)
        return float(dur[under].sum())
