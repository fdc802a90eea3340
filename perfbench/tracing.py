"""Outside-in tracing of the package's layers.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent span, job id) in
memory.  Nothing inside the package is edited: the wrappers are module
attributes, so they see every call that goes through a module global or a
``module.function`` reference, including calls inside the same module.  Two
kinds of call escape them:

* names bound by ``from .module import name`` before the wrappers are
  installed -- in this package only ``pell`` importing ``minimize`` from
  ``automata`` (one small call per ``canonical_recognizer``);
* the scalar helpers in ``UNWRAPPED``, which run once per symbol inside their
  own layer's loops; a span per call would cost more than the work.

Span times are ``perf_counter`` readings until ``rescale`` maps them to the
worker's scaled seconds (hostclock.py).  Layer metrics are aggregated from the
spans by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

LAYERS = ("automata", "logic", "learner", "sequences", "pell", "search", "_kernels")

UNWRAPPED = {
    "pell": {"pell_number"},
    "sequences": {"floor_alpha", "sturmian", "x5_oracle", "x3_oracle"},
}


# Extra numbers recorded on a span, from the call's arguments and result.
_INFO: dict[str, Callable[[tuple, Any], tuple]] = {
    "automata.project": lambda args, out: (args[0].n_states, out.n_states),
    "automata.product": lambda args, out: (out.n_states,),
    "_kernels.extend_mask": lambda args, out: (len(args[0]), int(out.sum())),
    "search.bfs_levels": lambda args, out: (len(out),),
}


class Tracer:
    """Span recorder; one per worker process."""

    def __init__(self) -> None:
        # each span is [name, start, end, parent index, job id, info]
        self.spans: list[list] = []
        self._open: list[int] = [-1]
        self.job = "setup"
        self.active = True
        self.errors: dict[str, int] = defaultdict(int)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        for layer in LAYERS:
            module = importlib.import_module(f"pelldecide.{layer}")
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or attr in UNWRAPPED.get(layer, ())
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
                setattr(module, attr, wrap(layer, name, fn))

    def _enter(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._open[-1], self.job, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._exit(span)
            if info is not None:
                span[5] = info(args, out)
            return out

        return traced

    def _wrap_generator(self, layer: str, name: str, fn: Callable) -> Callable:
        # one span per step: the time between yields, spent inside next()
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                span = self._enter(name) if self.active else None
                try:
                    item = next(steps)
                except StopIteration:
                    return
                except Exception:
                    self.errors[layer] += 1
                    raise
                finally:
                    if span is not None:
                        self._exit(span)
                if span is not None and info is not None:
                    span[5] = info((), item)
                yield item

        return traced

    # -- output -----------------------------------------------------------

    def rescale(self, clock: Callable) -> None:
        """Map every span's start and end through ``clock``, a function from
        ``perf_counter`` readings to scaled seconds (hostclock.py)."""
        if not self.spans:
            return
        times = clock([(span[1], span[2]) for span in self.spans])
        for span, (start, end) in zip(self.spans, times.tolist()):
            span[1], span[2] = start, end

    def write(self, path) -> None:
        """Write the spans as JSON lines (times in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, job, info in self.spans:
                f.write(json.dumps({
                    "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "parent": parent, "job": job,
                    **({"info": list(info)} if info is not None else {}),
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals, named as the ``per_layer`` metrics of
        BENCHMARK.json (without the src_lines and trace.wall_s/overhead_s
        entries, which run.py adds)."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        infos: dict[str, list] = defaultdict(list)
        for k, (name, start, end, _, _, info) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            total[name] += end - start
            calls[name] += 1
            calls[layer] += 1
            self_s[layer] += end - start - child_s[k]
            self_s[name] += end - start - child_s[k]
            if info is not None:
                infos[name].append(info)

        def col(name: str, i: int) -> list:
            return [info[i] for info in infos[name]]

        def sum_of(*names: str, table=total) -> float:
            return sum(table[n] for n in names)

        levels = infos["search.bfs_levels"]
        level_s = [end - start for name, start, end, *_ in self.spans if name == "search.bfs_levels"]
        rows_in = sum(col("_kernels.extend_mask", 0))
        m = {
            "automata.project.s": total["automata.project"],
            "automata.project.calls": calls["automata.project"],
            "automata.project.states_in_max": max(col("automata.project", 0), default=0),
            "automata.project.states_out_max": max(col("automata.project", 1), default=0),
            "automata.minimize.s": total["automata.minimize"],
            "automata.minimize.calls": calls["automata.minimize"],
            "automata.product.s": total["automata.product"],
            "automata.product.calls": calls["automata.product"],
            "automata.product.states_out_max": max(col("automata.product", 0), default=0),
            "automata.zero_closure.s": sum_of("automata.zero_saturate", "automata.zero_pad_closure"),
            "automata.run_batch.s": total["automata.run_batch"],
            "logic.compile.calls": calls["logic.compile"],
            "logic.compile.self_s": self_s["logic.compile"],
            "learner.membership.calls": calls["learner.adder_oracle"],
            "learner.membership.s": total["learner.adder_oracle"],
            "learner.bounded_equiv.calls": calls["learner.bounded_equiv"],
            "learner.bounded_equiv.s": total["learner.bounded_equiv"],
            "sequences.learn_word_dfao.s": total["sequences.learn_word_dfao"],
            "sequences.build.s": sum_of("sequences.c_alpha_dfao", "sequences.x5_dfao",
                                        "sequences.x3_dfao"),
            "pell.batch.calls": sum_of("pell.encode_batch", "pell.decode_batch",
                                       "pell.valid_digits_batch", table=calls),
            "pell.batch.s": sum_of("pell.encode_batch", "pell.decode_batch",
                                   "pell.valid_digits_batch"),
            "search.bfs.levels": len(levels),
            "search.bfs.rows_max": max((info[0] for info in levels), default=0),
            "search.bfs.level_s_max": max(level_s, default=0.0),
            "kernels.extend_mask.s": total["_kernels.extend_mask"],
            "kernels.extend_mask.rows_in": rows_in,
            "kernels.extend_mask.keep_ratio": (
                sum(col("_kernels.extend_mask", 1)) / rows_in if rows_in else 0.0),
            "kernels.scan.s": sum_of("_kernels.exponent_scan", "_kernels.balanced_scan"),
        }
        for layer in LAYERS:
            r = layer.lstrip("_")  # a metric name starts with a letter
            m[f"{r}.calls"] = calls[layer]
            m[f"{r}.self_s"] = self_s[layer]
            m[f"{r}.errors"] = self.errors[layer]
        m["trace.spans"] = len(self.spans)
        return m

