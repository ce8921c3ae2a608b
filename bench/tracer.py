"""Spans and counts around the library's layers, for the traced run.

`Tracer.install(lib)` replaces each function named in WRAPPED by a
wrapper, both in the module that defines it and wherever another
nottorsion module imported it (`reduction.char_act`, the tuple
`acceptance.CRITERIA`, ...), so that every call is caught.  The wrappers
live in the benchmark, not in the library.

A "span" entry records one span (id, name, start, end, parent id) per
call, kept in memory until `write`.  An "agg" entry is a kernel that runs
once per search candidate or per series operation; keeping one span per
call would cost too much memory, so it adds its calls, total time and
self time to a record per (name, parent name) instead.  An "items" entry
is a generator; it counts the items it yields.

`layer_metrics` reduces the spans, records and counts to the per-layer
metrics listed in BENCHMARK.json.
"""

import collections
import itertools
import json
import sys
import time

SPAN, AGG, ITEMS = "span", "agg", "items"

# (module, attribute, name, mode[, (counter, result -> int)])
WRAPPED = (
    ("series", "_mul_raw", "series.mul", AGG),
    ("series", "_decompose_raw", "series.decompose", AGG),
    ("series", "_subst_raw", "series.subst", AGG),
    ("series", "unit_mul", "series.unit_mul", SPAN),
    ("series", "unit_pow", "series.unit_pow", SPAN),
    ("series", "unit_subst", "series.unit_subst", SPAN),
    ("series", "unit_decompose", "series.unit_decompose", SPAN),
    ("series", "unit_recompose", "series.unit_recompose", SPAN),
    ("series", "nott_compose", "series.compose", SPAN),
    ("series", "nott_inverse", "series.inverse", SPAN),
    ("characters", "char_eval", "characters.char_eval", SPAN),
    ("characters", "char_act", "characters.char_act", SPAN),
    ("characters", "scalar_mul", "characters.scalar_mul", SPAN),
    ("characters", "enumerate_characters", "characters.enumerate", ITEMS),
    ("characters", "enumerate_reduced_forms", "characters.enumerate", ITEMS),
    ("reduction", "reduce", "reduction.reduce", SPAN),
    ("reduction", "reduce_mod_p", "reduction.stage1", SPAN),
    ("reduction", "clear_low_p_part", "reduction.stage2", SPAN),
    ("reduction", "verify_witness", "reduction.verify_witness", SPAN),
    ("equivalence", "_kernel_root", "equivalence.kernel_root", AGG,
     ("equivalence.kernel_rejects", bool)),
    ("equivalence", "_kernel_value_modp", "equivalence.kernel_value_modp", AGG,
     ("equivalence.kernel_rejects", bool)),
    ("equivalence", "_ActionScanner.matches", "equivalence.matches", AGG),
    ("equivalence", "_ActionScanner.action_matrix", "equivalence.action_matrix", AGG),
    ("equivalence", "_ActionScanner.apply_matrix", "equivalence.apply_matrix", AGG),
    ("equivalence", "strict_equiv_search", "equivalence.strict_search", SPAN,
     ("equivalence.witnesses", lambda r: r is not None)),
    ("equivalence", "weak_equiv_search", "equivalence.weak_search", SPAN,
     ("equivalence.witnesses", lambda r: r is not None)),
    ("equivalence", "partition_reduced_forms", "equivalence.partition", SPAN,
     ("equivalence.witnesses", lambda r: len(r.witnesses))),
    ("equivalence", "count_classes", "equivalence.count_classes", SPAN),
    ("equivalence", "weak_class_count", "equivalence.weak_class_count", SPAN),
    ("equivalence", "power_conjugacy_oracle", "equivalence.power_oracle", SPAN),
    *(
        ("acceptance", "run_criterion_%d" % k, "acceptance.criterion_%d" % k, SPAN)
        for k in range(1, 7)
    ),
    ("cli", "main", "cli.main", SPAN),
)

# equivalence entry points whose inclusive time the candidate rate divides by
SEARCH_SPANS = (
    "equivalence.strict_search",
    "equivalence.weak_search",
    "equivalence.partition",
    "equivalence.weak_class_count",
)

ROOT = 0


def self_times(spans, cover=None):
    """Self time of each span, by span id.

    A span's self time is its duration minus the part of that interval its
    child spans cover.  `cover` maps a span id to time spent in aggregated
    calls made directly from it; in one thread those never overlap a
    child span, so that time is subtracted as it is.
    """
    cover = cover or {}
    children = collections.defaultdict(list)
    for _, _, start, end, parent in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered - cover.get(sid, 0.0)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, name, start, end, parent id)
        self.aggregates = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.cover = collections.defaultdict(float)  # span id -> agg time
        self.counts = collections.Counter()
        # frames: [enclosing span id, child time, name, is_agg]
        self._stack = [[ROOT, 0.0, "root", False]]
        self._ids = itertools.count(ROOT + 1)

    def _wrap_span(self, fn, name, tally):
        stack, spans, ids, clock, counts = (
            self._stack, self.spans, self._ids, self.clock, self.counts,
        )

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids), 0.0, name, False]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                spans.append((frame[0], name, start, end, parent[0]))
            if tally:
                counts[tally[0]] += tally[1](result)
            return result

        return wrapper

    def _wrap_agg(self, fn, name, tally):
        stack, aggregates, cover, clock, counts = (
            self._stack, self.aggregates, self.cover, self.clock, self.counts,
        )

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0.0, name, True]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                if not parent[3]:
                    cover[parent[0]] += elapsed
                rec = aggregates.get((name, parent[2]))
                if rec is None:
                    rec = aggregates[(name, parent[2])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if tally:
                counts[tally[0]] += tally[1](result)
            return result

        return wrapper

    def _wrap_items(self, fn, name):
        counts, key = self.counts, name + ".items"

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def wrap(self, fn, name, mode, tally=None):
        if mode == ITEMS:
            return self._wrap_items(fn, name)
        if mode == AGG:
            return self._wrap_agg(fn, name, tally)
        return self._wrap_span(fn, name, tally)

    def install(self, lib):
        """Wrap every WRAPPED function of the loaded library `lib`."""
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "nottorsion" or key.startswith("nottorsion.")
        ]
        for module, attr, name, mode, *tally in WRAPPED:
            owner = getattr(lib, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], name, mode, *tally))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, mode, *tally)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, tuple) and any(v is original for v in value):
                        setattr(mod, key, tuple(wrapper if v is original else v for v in value))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "aggregates": [
                        [name, parent, *rec]
                        for (name, parent), rec in sorted(self.aggregates.items())
                    ],
                    "counts": dict(sorted(self.counts.items())),
                },
                fh,
                separators=(",", ":"),
            )


# (metric, unit, better) for every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("series.decompose.calls", "count", "lower"),
    ("series.decompose.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.subst.calls", "count", "lower"),
    ("series.subst.self_s", "s", "lower"),
    ("series.compose.self_s", "s", "lower"),
    ("series.strip_tables.hit_ratio", "ratio", "higher"),
    ("characters.char_act.calls", "count", "lower"),
    ("characters.char_act.self_s", "s", "lower"),
    ("characters.char_eval.calls", "count", "lower"),
    ("characters.char_eval.self_s", "s", "lower"),
    ("characters.enumerate.items", "count", "lower"),
    ("reduction.reduce.calls", "count", "lower"),
    ("reduction.reduce.self_s", "s", "lower"),
    ("reduction.stage1.self_s", "s", "lower"),
    ("reduction.stage2.self_s", "s", "lower"),
    ("reduction.steps_per_reduce", "ratio", "lower"),
    ("reduction.verify_witness.calls", "count", "lower"),
    ("reduction.verify_witness.self_s", "s", "lower"),
    ("equivalence.candidates", "count", "lower"),
    ("equivalence.kernel_tests", "count", "lower"),
    ("equivalence.kernel_rejects", "count", "lower"),
    ("equivalence.hit_ratio", "ratio", "higher"),
    ("equivalence.candidates_per_s", "1/s", "higher"),
    ("equivalence.action_matrix.self_s", "s", "lower"),
    ("equivalence.apply_matrix.self_s", "s", "lower"),
    ("equivalence.matches.self_s", "s", "lower"),
    ("equivalence.partition.self_s", "s", "lower"),
    ("equivalence.strict_search.self_s", "s", "lower"),
    ("equivalence.weak_search.self_s", "s", "lower"),
    ("equivalence.count_classes.self_s", "s", "lower"),
    ("equivalence.weak_class_count.self_s", "s", "lower"),
    *(("acceptance.criterion_%d_s" % k, "s", "lower") for k in range(1, 7)),
    ("cli.main.self_s", "s", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, strip_cache_info):
    """Per-layer metric values (all of PER_LAYER but the tracing overhead)."""
    by_id = {s[0]: s for s in tracer.spans}
    own = self_times(tracer.spans, tracer.cover)
    calls = collections.Counter()
    self_s = collections.defaultdict(float)
    incl_s = collections.defaultdict(float)
    for sid, name, start, end, _ in tracer.spans:
        calls[name] += 1
        self_s[name] += own[sid]
        incl_s[name] += end - start
    for (name, _), (n, _, own_s) in tracer.aggregates.items():
        calls[name] += n
        self_s[name] += own_s
    steps = sum(
        1 for s in tracer.spans
        if s[1] == "characters.char_act"
        and by_id.get(s[4], (0, ""))[1] in ("reduction.stage1", "reduction.stage2")
    )
    candidates = calls["equivalence.matches"] + calls["equivalence.action_matrix"]
    out = {}
    for metric, _, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[head]
        elif field == "self_s":
            out[metric] = self_s[head]
    out["series.strip_tables.hit_ratio"] = _ratio(
        strip_cache_info.hits, strip_cache_info.hits + strip_cache_info.misses
    )
    out["characters.enumerate.items"] = tracer.counts["characters.enumerate.items"]
    out["reduction.steps_per_reduce"] = _ratio(steps, calls["reduction.reduce"])
    out["equivalence.candidates"] = candidates
    out["equivalence.kernel_tests"] = (
        calls["equivalence.kernel_root"] + calls["equivalence.kernel_value_modp"]
    )
    out["equivalence.kernel_rejects"] = tracer.counts["equivalence.kernel_rejects"]
    out["equivalence.hit_ratio"] = _ratio(tracer.counts["equivalence.witnesses"], candidates)
    out["equivalence.candidates_per_s"] = _ratio(
        candidates, sum(incl_s[name] for name in SEARCH_SPANS)
    )
    for k in range(1, 7):
        out["acceptance.criterion_%d_s" % k] = incl_s["acceptance.criterion_%d" % k]
    return out
