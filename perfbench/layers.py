"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the program's public functions, wherever a
module of ``signedsum`` holds a reference to them, with wrappers that
record aggregated spans: calls, total time and self time (total minus the
time of spans opened inside it). ``uninstall`` puts the originals back.
Spans stay in memory and are summed into metrics when a round ends; no
file of the program is changed.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import gcd
from time import perf_counter

CHECKERS = ("direct", "inverse", "prefix_decomposition", "partial_inverse",
            "special_direct")


def _half_width(a, h: int, op) -> int:
    """The DP bitmap's half-width, as the engine sizes it."""
    if op.restricted:
        return sum(abs(x) for x in a.elements)
    return h * max(abs(x) for x in a.elements)


class Tracer:
    def __init__(self) -> None:
        import signedsum
        from signedsum import cli, engine, reproduce, search, sets, verify
        self.modules = (signedsum, cli, engine, reproduce, search, sets, verify)
        self.engine, self.search, self.cli = engine, search, cli
        self.reproduce, self.verify, self.sets = reproduce, verify, sets
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [name, child_time, is_outer_checker]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.checker_calls: Counter = Counter()
        self.checker_time: defaultdict = defaultdict(float)
        self.checker_engine_calls: Counter = Counter()
        self.engine_bits = 0
        self.engine_calls = 0
        self.cardinality_inputs: list[tuple] = []
        self.enumerate_s = 0.0
        self.records_emitted = 0
        self.visited = 0
        self.shard_sizes: list[int] = []
        self.largest_sweep = (0, 0.0)  # (visited, largest shard share)

    # --- span bookkeeping ----------------------------------------------

    def _enter(self, name: str) -> list:
        outer = (name.startswith("verify.")
                 and not any(f[2] for f in self.stack))
        frame = [name, 0.0, outer]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, dur: float) -> None:
        self.stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        if frame[2]:
            self.checker_calls[name] += 1
            self.checker_time[name] += dur
        if self.stack:
            self.stack[-1][1] += dur

    def _span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(frame, perf_counter() - t0)
        return wrapper

    def _engine_span(self, name: str, fn, record_inputs: bool):
        tracer = self
        span = self._span(name, fn)

        def wrapper(a, h, op):
            tracer.engine_calls += 1
            hw = _half_width(a, h, op)
            tracer.engine_bits += 2 * hw + 1
            if record_inputs:
                tracer.cardinality_inputs.append((a.elements, h, op, hw))
            for frame in tracer.stack:
                if frame[2]:
                    tracer.checker_engine_calls[frame[0]] += 1
                    break
            return span(a, h, op)
        return wrapper

    # --- patching --------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _replace_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        engine, search, verify = self.engine, self.search, self.verify
        self._replace(engine.sumset_cardinality, self._engine_span(
            "engine.sumset_cardinality", engine.sumset_cardinality, True))
        self._replace(engine.compute_sumset, self._engine_span(
            "engine.compute_sumset", engine.compute_sumset, False))
        self._replace(self.sets.classify_structure, self._span(
            "sets.classify", self.sets.classify_structure))
        for checker in CHECKERS:
            fn = getattr(verify, "check_" + checker)
            self._replace(fn, self._span("verify." + checker, fn))
        self._replace(search.sweep, self._traced_sweep(search.sweep))
        self._replace(self.cli.main, self._span("cli.main", self.cli.main))
        self._replace(self.reproduce.run_target, self._span(
            "reproduce.run_target", self.reproduce.run_target))
        for target, fn in list(self.reproduce.TARGETS.items()):
            self._undo.append((self.reproduce.TARGETS, target, fn))
            self.reproduce.TARGETS[target] = self._span(
                "reproduce." + target, fn)
        self._replace_attr(search.SearchRecord, "to_csv_row", self._span(
            "search.to_csv_row", search.SearchRecord.to_csv_row))
        self._replace_attr(search.SearchSpace, "shard_candidates",
                           self._traced_shard(
                               search.SearchSpace.shard_candidates))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _traced_sweep(self, fn):
        tracer = self
        span = self._span("search.sweep", fn)

        def wrapper(space, **kwargs):
            callback = kwargs.get("on_record")
            if callback is not None:
                def counted(record):
                    tracer.records_emitted += 1
                    callback(record)
                kwargs["on_record"] = counted
            tracer.shard_sizes = []
            summary = span(space, **kwargs)
            tracer.visited += summary.visited
            sizes = tracer.shard_sizes
            if sizes and summary.visited > tracer.largest_sweep[0]:
                tracer.largest_sweep = (summary.visited,
                                        max(sizes) / sum(sizes))
            return summary
        return wrapper

    def _traced_shard(self, fn):
        tracer = self

        def wrapper(space, key):
            it = fn(space, key)
            primitive = space.filter_id == "primitive"
            size = 0
            while True:
                t0 = perf_counter()
                try:
                    candidate = next(it)
                except StopIteration:
                    tracer.enumerate_s += perf_counter() - t0
                    break
                tracer.enumerate_s += perf_counter() - t0
                if not primitive or gcd(*candidate) == 1:
                    size += 1
                yield candidate
            tracer.shard_sizes.append(size)
        return wrapper

    # --- results ---------------------------------------------------------

    def replay_dp(self) -> float:
        """Time the engine's bare DP on the recorded cardinality inputs."""
        achievable = getattr(self.engine, "_achievable", None)
        if achievable is None:
            print("perfbench: engine._achievable is gone; engine.dp_s reads 0",
                  file=sys.stderr)
            return 0.0
        t0 = perf_counter()
        for elements, h, op, hw in self.cardinality_inputs:
            achievable(elements, h, op, hw)
        return perf_counter() - t0

    def metrics(self, dp_s: float) -> dict[str, float]:
        card_calls = self.calls["engine.sumset_cardinality"]
        card_s = self.total["engine.sumset_cardinality"]
        out = {
            "search.enumerate_s": self.enumerate_s,
            "search.visited": self.visited,
            "search.largest_shard_share": self.largest_sweep[1],
            "search.records_emitted": self.records_emitted,
            "search.record_s": self.total["search.to_csv_row"],
            "engine.cardinality.calls": card_calls,
            "engine.cardinality_s": card_s,
            "engine.cardinality_us_per_call":
                card_s / card_calls * 1e6 if card_calls else 0.0,
            "engine.dp_s": dp_s,
            "engine.overhead_s": card_s - dp_s if dp_s else 0.0,
            "engine.compute_sumset.calls": self.calls["engine.compute_sumset"],
            "engine.compute_sumset_s": self.total["engine.compute_sumset"],
            "engine.bitmap_bits_mean":
                self.engine_bits / self.engine_calls if self.engine_calls
                else 0.0,
            "sets.classify.calls": self.calls["sets.classify"],
            "sets.classify_s": self.total["sets.classify"],
            "cli.overhead_s": self.self_time["cli.main"],
        }
        for checker in CHECKERS:
            name = "verify." + checker
            calls = self.checker_calls[name]
            out[name + "_s"] = self.checker_time[name]
            out[name + ".engine_calls"] = (
                self.checker_engine_calls[name] / calls if calls else 0.0)
        for target in self.reproduce.TARGETS:
            out[f"reproduce.{target}_s"] = self.total["reproduce." + target]
        return out
