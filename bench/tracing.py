"""Spans around the package's layers, recorded from outside the package.

``install`` replaces public functions under the name each caller looks
them up by (``cli.synthesize``, ``discussion.view_payload``, ...) with
wrappers that record a span: name, seed, parent, start and end, plus a
few computed values. Spans stay in memory; ``layer_metrics`` turns them
into per-seed layer totals. Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import functools
import importlib
import re
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Span record fields, kept in a list for low overhead.
NAME, SEED, PARENT, START, END, ATTRS = range(6)

_ROLE_TAG = re.compile(r"\[role:([a-z_]+)\]")

#: Computed values that describe one structure, so they are not summed.
_MAX_ATTRS = ("metrics.distance_matrix_mb", "metrics.pairs_within_500m_share")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.seed = None

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, self.seed, self._stack[-1] if self._stack else -1,
               0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording a span; ``measure(args, kwargs, result)``
        returns the span's computed values."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if measure is not None:
                rec[ATTRS] = measure(args, kwargs, result)
            return result
        return traced


def _point_edge_ops(args, kwargs, result):
    points, vertices = args[0], args[1]
    n = len(points) if getattr(points, "ndim", 2) > 1 else 1
    return {"geometry.point_edge_ops": n * len(vertices)}


def _matrix_stats(args, kwargs, result):
    mat = args[0].matrix("boundary")
    return {"metrics.distance_matrix_mb": mat.nbytes / 1e6,
            "metrics.pairs_within_500m_share": float((mat < 500.0).mean())}


def _role_tag(args, kwargs, result):
    for message in args[1]:
        if message.role == "system":
            hit = _ROLE_TAG.search(message.content)
            if hit:
                return {f"llm.requests.{hit.group(1)}": 1}
            break
    return None


def _path_bytes(position):
    def measure(args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[position]
        return {"cli.artifact_bytes": Path(path).stat().st_size}
    return measure


def _text_bytes(args, kwargs, result):
    return {"cli.artifact_bytes": len(result.encode())}


# (module, attribute, span name, measure). Each entry patches the name the
# caller looks up: the CLI imports synthesize and save_plan directly,
# discussion imports DistanceCache and the prompt/parse helpers directly,
# and everything else is reached through a module attribute.
PATCHES = (
    ("cli", "load_region", "region.load", None),
    ("cli", "load_demographics", "population.load", None),
    ("cli", "synthesize", "population.synthesize", None),
    ("cli", "make_backend", "llm.make_backend", None),
    ("cli", "validate_plan", "region.validate_plan", None),
    ("cli", "save_plan", "cli.artifact", _path_bytes(1)),
    ("discussion", "validate_plan", "region.validate_plan", None),
    ("discussion", "run_full_pipeline", "discussion.pipeline", None),
    ("discussion", "run_community_revision", "discussion.revision", None),
    ("discussion", "invite", "discussion.invite", None),
    ("discussion", "view_payload", "discussion.view_payload", None),
    ("discussion", "render_opinion_prompt", "llm.render_prompt", None),
    ("discussion", "parse_opinion_response", "llm.parse", None),
    ("discussion", "save_transcript", "cli.artifact", _path_bytes(1)),
    ("discussion", "render_transcript_text", "cli.artifact", _text_bytes),
    ("llm", "render_summary_prompt", "llm.render_prompt", None),
    ("metrics", "report", "metrics.report", None),
    ("metrics", "use_hits", "metrics.use_hits", None),
    ("metrics", "write_metrics_csv", "cli.artifact", _path_bytes(0)),
    ("planners", "plan_objective", "planners.objective", None),
    ("planners", "random_plan", "planners.random", None),
    ("planners", "local_search_plan", "planners.local_search", None),
    ("planners", "gsca_plan", "planners.gsca", None),
    ("geometry", "distance_to_polygon_many", "geometry.kernel", _point_edge_ops),
    ("rules", "opinion_reply", "rules.reply", None),
    ("rules", "summary_reply", "rules.reply", None),
    ("rules", "describe_reply", "rules.reply", None),
    ("rules", "initial_plan_reply", "rules.reply", None),
)

#: Modules whose ``DistanceCache`` name is replaced by a traced subclass.
CACHE_USERS = ("metrics", "discussion", "planners")


def install(tracer: Tracer):
    """Patch the package; returns a function that undoes every patch.

    A name the package no longer has is skipped with a note on stderr, so
    a later refactor leaves that layer's metrics at 0 instead of breaking
    the traced run.
    """
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def missing(owner, attr):
        if hasattr(owner, attr):
            return False
        print(f"trace: {owner.__name__}.{attr} not found, not traced",
              file=sys.stderr)
        return True

    mod = {name: importlib.import_module(f"participlan.{name}")
           for name in ("cli", "discussion", "llm", "metrics", "planners",
                        "geometry", "rules")}
    for module, attr, span, measure in PATCHES:
        if not missing(mod[module], attr):
            patch(mod[module], attr,
                  tracer.wrap(span, getattr(mod[module], attr), measure))

    # The method, not the backend object: run_community_revision picks
    # greedy repair only when isinstance(planner_backend, RuleBackend).
    if not missing(mod["llm"], "RuleBackend"):
        backend_cls = mod["llm"].RuleBackend
        patch(backend_cls, "complete",
              tracer.wrap("llm.complete", backend_cls.complete, _role_tag))

    # A subclass, so that isinstance checks against the name still hold.
    if not missing(mod["metrics"], "DistanceCache"):
        base = mod["metrics"].DistanceCache
        traced_cache = type(base.__name__, (base,), {
            "__init__": tracer.wrap("metrics.distance_build", base.__init__,
                                    _matrix_stats)})
        for module in CACHE_USERS:
            if not missing(mod[module], "DistanceCache"):
                patch(mod[module], "DistanceCache", traced_cache)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


# Reported name -> (span name, what to take, unit). What to take is "s"
# for inclusive seconds, "n" for the span count, or a computed value.
LAYER_METRICS = {
    "population.synthesize_s": ("population.synthesize", "s", "s"),
    "region.load_s": ("region.load", "s", "s"),
    "region.validate_plan_calls": ("region.validate_plan", "n", "count"),
    "geometry.kernel_calls": ("geometry.kernel", "n", "count"),
    "geometry.point_edge_ops":
        ("geometry.kernel", "geometry.point_edge_ops", "count"),
    "geometry.kernel_s": ("geometry.kernel", "s", "s"),
    "metrics.distance_build_s": ("metrics.distance_build", "s", "s"),
    "metrics.distance_matrix_mb":
        ("metrics.distance_build", "metrics.distance_matrix_mb", "MB"),
    "metrics.pairs_within_500m_share":
        ("metrics.distance_build", "metrics.pairs_within_500m_share", "ratio"),
    "metrics.report_calls": ("metrics.report", "n", "count"),
    "metrics.report_s": ("metrics.report", "s", "s"),
    "metrics.use_hits_calls": ("metrics.use_hits", "n", "count"),
    "metrics.use_hits_s": ("metrics.use_hits", "s", "s"),
    "planners.objective_evals": ("planners.objective", "n", "count"),
    "planners.objective_s": ("planners.objective", "s", "s"),
    "planners.local_search_s": ("planners.local_search", "s", "s"),
    "planners.gsca_s": ("planners.gsca", "s", "s"),
    "discussion.invite_s": ("discussion.invite", "s", "s"),
    "discussion.view_payload_calls": ("discussion.view_payload", "n", "count"),
    "discussion.view_payload_s": ("discussion.view_payload", "s", "s"),
    "discussion.revision_s": ("discussion.revision", "s", "s"),
    "llm.requests.resident_opinion":
        ("llm.complete", "llm.requests.resident_opinion", "count"),
    "llm.requests.summarize":
        ("llm.complete", "llm.requests.summarize", "count"),
    "llm.complete_s": ("llm.complete", "s", "s"),
    "llm.render_prompt_s": ("llm.render_prompt", "s", "s"),
    "llm.parse_s": ("llm.parse", "s", "s"),
    "rules.reply_s": ("rules.reply", "s", "s"),
    "cli.artifact_s": ("cli.artifact", "s", "s"),
    "cli.artifact_bytes": ("cli.artifact", "cli.artifact_bytes", "B"),
}


def per_seed_totals(spans) -> dict:
    """{seed: {(span name, "s" | "n" | computed value): total}}."""
    totals: dict = defaultdict(lambda: defaultdict(float))
    for rec in spans:
        t = totals[rec[SEED]]
        name = rec[NAME]
        t[name, "s"] += rec[END] - rec[START]
        t[name, "n"] += 1
        for key, value in (rec[ATTRS] or {}).items():
            if key in _MAX_ATTRS:
                t[name, key] = max(t[name, key], value)
            else:
                t[name, key] += value
    return totals


def layer_metrics(spans) -> dict:
    """Median over the traced seeds of every reported layer metric."""
    totals = per_seed_totals(spans)
    return {metric: {"value": statistics.median(t.get((span, what), 0.0)
                                                for t in totals.values()),
                     "unit": unit}
            for metric, (span, what, unit) in LAYER_METRICS.items()}


def top_level_coverage(spans) -> dict:
    """{seed: share of the seed span covered by spans under its commands}."""
    seed_spans = {i: rec for i, rec in enumerate(spans) if rec[NAME] == "seed"}
    commands = {i for i, rec in enumerate(spans) if rec[PARENT] in seed_spans}
    covered: dict = defaultdict(float)
    for rec in spans:
        if rec[PARENT] in commands:
            covered[rec[SEED]] += rec[END] - rec[START]
    return {rec[SEED]: covered[rec[SEED]] / (rec[END] - rec[START])
            for rec in seed_spans.values()}
