"""Spans around the public entry points of invseq, recorded from outside.

The tracer replaces module and class attributes at run time with thin
wrappers.  Each call becomes one span (name, start, end, parent, run id);
spans stay in memory and are written out once the pass ends.  Per-layer
metrics are then computed from the spans: totals, call counts, self times
(a span's duration minus the time its direct children cover) and a few
exact counters derived from arguments and results.

Only references that callers actually go through are wrapped: the
attribute on the defining module, the same name where ``analysis``,
``cli`` or ``series`` imported it with ``from ... import``, the
``TruncatedSeries`` methods, and each succession rule's ``step_state``
and ``counted_total``.  Internal imports inside ``gentree`` (its use of
``combinat`` inside the steppers) are left alone, so the census is not
slowed by thousands of tiny wrapped calls.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from invseq import analysis, cli, combinat, core, gentree, oracle, series
from invseq.gentree import ClassId

# span name -> the (namespace, attribute) pairs that reference the function
ENTRY_POINTS = {
    "gentree.count_class": [(gentree, "count_class"), (cli, "count_class")],
    "oracle.count_avoiders": [
        (oracle, "count_avoiders"),
        (analysis, "count_avoiders"),
        (cli, "count_avoiders"),
    ],
    "oracle.count_words": [(oracle, "count_words"), (cli, "count_words")],
    "series.closed_form": [(series, "expand_closed_form"), (cli, "expand_closed_form")],
    "series.catalytic": [(series, "iterate_catalytic"), (cli, "iterate_catalytic")],
    "series.minpoly": [
        (series, "verify_minimal_polynomial"),
        (cli, "verify_minimal_polynomial"),
    ],
    "series.kernel_root": [(series, "kernel_root"), (cli, "kernel_root")],
    "series.hensel": [(series, "hensel_quadratic_factors")],
    "series.bounded_roots": [(series, "bounded_roots_733")],
    "series.mul": [
        (series.TruncatedSeries, "__mul__"),
        (series.TruncatedSeries, "__rmul__"),
    ],
    "series.inverse": [(series.TruncatedSeries, "inverse")],
    "series.sqrt": [(series.TruncatedSeries, "sqrt")],
    "analysis.estimate_growth": [
        (analysis, "estimate_growth"),
        (cli, "estimate_growth"),
    ],
    "analysis.fit_stretched": [(analysis, "fit_stretched"), (cli, "fit_stretched")],
    "analysis.classify": [(analysis, "classify_triples"), (cli, "classify_triples")],
    "analysis.close_pattern_set": [(analysis, "close_pattern_set")],
    "core.triple_to_pattern_set": [
        (core, "triple_to_pattern_set"),
        (analysis, "triple_to_pattern_set"),
        (cli, "triple_to_pattern_set"),
    ],
    "cli.classify": [(cli, "cmd_classify")],
}
COMBINAT_FUNCTIONS = (
    "catalan",
    "words_R1R2",
    "words_R1R3",
    "multiplicity_m",
    "multiplicity_w",
)
CLASS_NAMES = [c.value for c in ClassId]


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self, run_id: str, clock):
        self.run_id = run_id
        # span times come from clock(); the pass's clock stands still while
        # host speed is sampled, so spans do not include the sampling
        self.clock = clock
        # each span: [name, start, end, parent index or -1, attrs or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._oracle_counts: dict[core.PatternSet, dict[int, int]] = defaultdict(dict)
        self._count_avoiders = oracle.count_avoiders
        self.max_bits = 0

    def _wrap(self, name, fn, attrs_of=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs)
            if on_result is not None:
                on_result(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        hooks = {
            "gentree.count_class": (_class_and_n, None),
            "oracle.count_avoiders": (None, self._on_count_avoiders),
        }
        for name, refs in ENTRY_POINTS.items():
            original = getattr(*refs[0])
            attrs_of, on_result = hooks.get(name, (None, None))
            wrapper = self._wrap(name, original, attrs_of, on_result)
            for owner, attr in refs:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{name}: {owner.__name__}.{attr} is not one function")
                self._patch(owner, attr, wrapper)
        for fname in COMBINAT_FUNCTIONS:
            self._patch(combinat, fname, self._wrap("combinat", getattr(combinat, fname)))
        for cid, rule in gentree._RULES.items():
            self._patch(
                rule,
                "step_state",
                self._wrap(
                    "gentree.step_state",
                    rule.step_state,
                    lambda args, kwargs, cls=cid.value: (cls, args[1]),
                ),
            )
            self._patch(
                rule,
                "counted_total",
                self._wrap("gentree.counted_total", rule.counted_total, on_result=self._on_total),
            )

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._patched):
            if previous is None:
                delattr(owner, attr)  # an instance attribute we added
            else:
                setattr(owner, attr, previous)
        self._patched.clear()

    def _on_total(self, span, args, result) -> None:
        self.max_bits = max(self.max_bits, int(result).bit_length())

    def _on_count_avoiders(self, span, args, result) -> None:
        # The pruned DFS visits exactly the avoiding prefixes, so one call
        # at n visits sum_{k<=n} |I_k(S)| nodes.  Callers go n = 0, 1, ...
        # in order, so the smaller terms are normally already known.
        n, patterns = args[0], args[1]
        known = self._oracle_counts[patterns]
        known[n] = result
        for k in range(n):
            if k not in known:
                known[k] = self._count_avoiders(k, patterns, None if len(args) < 3 else args[2])
        span[4] = sum(known[k] for k in range(n + 1))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "run": self.run_id,
                }
                if attrs is not None:
                    record["attrs"] = attrs
                fh.write(json.dumps(record) + "\n")

    def metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the recorded spans, keyed by metric name.

        Every time is multiplied by time_scale, the pass's host-speed factor.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        children_steps = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += (end - start) * time_scale
                if name == "gentree.step_state":
                    children_steps[parent] += 1
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        step_times: dict[str, list[tuple[int, float]]] = defaultdict(list)
        requested = steps_in_calls = 0
        dfs_nodes = 0
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            duration = (end - start) * time_scale
            calls[name] += 1
            self_time[name] += duration - child_time[i]
            if parent < 0 or spans[parent][0] != name:
                total[name] += duration
            if name == "gentree.step_state":
                step_times[attrs[0]].append((attrs[1], duration))
            elif name == "gentree.count_class":
                requested += attrs[1] + 1
                steps_in_calls += children_steps[i]
            elif name == "oracle.count_avoiders":
                dfs_nodes += attrs
        out = {
            "gentree.steps": calls["gentree.step_state"],
            "gentree.step_s": total["gentree.step_state"],
            "gentree.counted_total_s": total["gentree.counted_total"],
            "gentree.max_bits": self.max_bits,
            "gentree.cache_hit_frac": (requested - steps_in_calls) / requested if requested else 0.0,
        }
        for cls in CLASS_NAMES:
            timed = sorted(step_times.get(cls, []))
            out[f"gentree.step_s.{cls}"] = sum(d for _, d in timed)
            deep = [d for _, d in timed[-10:]]
            out[f"gentree.step_ms_deep.{cls}"] = 1e3 * statistics.fmean(deep) if deep else 0.0
        oracle_s = total["oracle.count_avoiders"]
        out.update(
            {
                "oracle.count_avoiders.calls": calls["oracle.count_avoiders"],
                "oracle.count_avoiders_s": oracle_s,
                "oracle.dfs_nodes": dfs_nodes,
                "oracle.ns_per_node": 1e9 * oracle_s / dfs_nodes if dfs_nodes else 0.0,
                "oracle.count_words.calls": calls["oracle.count_words"],
                "oracle.count_words_s": total["oracle.count_words"],
                "series.mul.calls": calls["series.mul"],
                "series.mul_s": total["series.mul"],
                "series.inverse.calls": calls["series.inverse"],
                "series.inverse_s": total["series.inverse"],
                "series.sqrt_s": total["series.sqrt"],
                "series.closed_form_s": total["series.closed_form"],
                "series.catalytic_s": total["series.catalytic"],
                "series.minpoly_s": total["series.minpoly"],
                "series.kernel_root_s": total["series.kernel_root"],
                "series.hensel_s": total["series.hensel"],
                "series.bounded_roots_s": total["series.bounded_roots"],
                "analysis.estimate_growth.calls": calls["analysis.estimate_growth"],
                "analysis.estimate_growth_s": total["analysis.estimate_growth"],
                "analysis.fit_stretched_s": total["analysis.fit_stretched"],
                "analysis.classify_self_s": self_time["analysis.classify"],
                "analysis.close_pattern_set_s": total["analysis.close_pattern_set"],
                "core.triple_to_pattern_set.calls": calls["core.triple_to_pattern_set"],
                "core.triple_to_pattern_set_s": total["core.triple_to_pattern_set"],
                "cli.classify_self_s": self_time["cli.classify"],
                "combinat.calls": calls["combinat"],
                "combinat_s": self_time["combinat"],
            }
        )
        return out


def _class_and_n(args, kwargs):
    return (args[0].value, args[1])
