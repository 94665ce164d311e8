"""Fishbowl discussion and community-by-community plan revision.

One community revision: invite residents living in or near the
community, run N rounds where M sampled speakers voice opinions about
the frozen plan (each seeing their neighborhood and all prior round
summaries), summarize every round, then let the planner revise the
community from the accumulated summaries. The full pipeline applies
this to every community in ascending id order and records a metrics
report after the initial plan and after each revision, each read from
the one coverage evaluator that every revision edits.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import llm as llm_mod
from . import metrics as metrics_mod
from . import rules
from .errors import EmptyCommunity, InvariantError, NotPresent
from .geometry import compass_label
from .llm import (Backend, PlanEdit, RuleBackend, ask_with_repair,
                  parse_opinion_response, parse_plan_edits,
                  render_opinion_prompt, render_revision_prompt)
from .metrics import REACH_M, SERVICE_RADIUS_M, MetricsReport, ProximityIndex
from .population import Population, Resident
from .region import (CANON_INDEX, USE_CODES, LandUse, Plan, Region,
                     plan_digest, quota_spare, validate_plan)

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class DiscussionConfig:
    rounds: int = 3
    speakers_per_round: int = 50
    invite_buffer_m: float = 500.0
    exchange_fraction: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.speakers_per_round < 1:
            raise ValueError("speakers_per_round must be >= 1")
        if not (0.0 <= self.exchange_fraction <= 1.0):
            raise ValueError("exchange_fraction must be in [0, 1]")
        if not 0 < self.invite_buffer_m < np.inf:
            raise ValueError("invite_buffer_m must be positive and finite")


@dataclass(frozen=True)
class OpinionItem:
    area_id: int
    use: LandUse
    reason: str


@dataclass(frozen=True)
class Opinion:
    resident_id: int
    text: str
    structured: tuple[OpinionItem, ...] = ()


@dataclass(frozen=True)
class Round:
    speaker_ids: tuple[int, ...]
    opinions: tuple[Opinion, ...]
    summary: str


@dataclass(frozen=True)
class Transcript:
    community_id: int
    rounds: tuple[Round, ...]
    final_edits: PlanEdit
    plan_before: str
    plan_after: str
    notes: tuple[str, ...] = ()


def transcript_to_json_dict(t: Transcript) -> dict:
    return {
        "community_id": t.community_id,
        "plan_before": t.plan_before,
        "plan_after": t.plan_after,
        "rounds": [
            {
                "speakers": list(r.speaker_ids),
                "opinions": [
                    {
                        "resident_id": o.resident_id,
                        "text": o.text,
                        "requests": [
                            {"area_id": it.area_id, "use": it.use.value,
                             "reason": it.reason}
                            for it in o.structured
                        ],
                    }
                    for o in r.opinions
                ],
                "summary": r.summary,
            }
            for r in t.rounds
        ],
        "final_edits": {
            "edits": [{"area_id": a, "use": u.value} for a, u in t.final_edits.edits],
            "rationale": t.final_edits.rationale,
        },
        "notes": list(t.notes),
    }


def save_transcript(t: Transcript, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(transcript_to_json_dict(t), indent=2, sort_keys=True) + "\n")


def render_transcript_text(t: Transcript) -> str:
    lines = [f"Community {t.community_id} discussion",
             f"plan before: {t.plan_before}   plan after: {t.plan_after}", ""]
    for i, r in enumerate(t.rounds, start=1):
        lines.append(f"=== Round {i} ({len(r.speaker_ids)} speakers) ===")
        for o in r.opinions:
            lines.append(f"[resident {o.resident_id}]")
            lines.append(o.text)
        lines.append(f"[summary] {r.summary}")
        lines.append("")
    lines.append("=== Revision ===")
    if t.final_edits.edits:
        for a, u in t.final_edits.edits:
            lines.append(f"area {a} -> {u.value}")
    else:
        lines.append("(no areas changed)")
    if t.final_edits.rationale:
        lines.append(t.final_edits.rationale)
    for note in t.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Protocol pieces


def invite(community_id: int, region: Region, population: Population,
           invite_buffer_m: float = 500.0,
           cache: Optional[ProximityIndex] = None) -> tuple[int, ...]:
    """Residents living in a community area or within the buffer of one.

    Membership uses boundary distance (0 inside), so "lives there" and
    "lives nearby" are one closed-threshold test.
    """
    if community_id not in region.community_ids:
        raise NotPresent(f"no community with id {community_id}")
    if cache is None:
        cache = ProximityIndex(region, population.homes, invite_buffer_m)
    cache.require(invite_buffer_m)
    in_community = np.array([a.community_id == community_id
                             for a in region.areas], dtype=bool)
    if not in_community.any():
        raise EmptyCommunity(f"community {community_id} has no areas")
    hit = in_community[cache.columns] & cache.within(invite_buffer_m)
    near = np.zeros(len(population), dtype=bool)
    near[cache.residents[hit]] = True
    invited = tuple(population.ids[near].tolist())
    if not invited:
        raise EmptyCommunity(
            f"community {community_id}: no resident within {invite_buffer_m:.0f} m")
    return invited


def area_table(region: Region, plan: Plan) -> list[tuple]:
    """(id, use value or None, centroid x, centroid y, changeable) of every
    area under `plan`, in region order: all view_payload reads of them."""
    return [(a.id, None if (use := plan.use_of(a)) is None else use.value,
             *a.centroid, a.is_vacant) for a in region.areas]


def view_payload(resident: Resident, region: Region, plan: Plan,
                 radius: float, cache: ProximityIndex, resident_index: int,
                 row: Optional[tuple[np.ndarray, np.ndarray]] = None,
                 table: Optional[list[tuple]] = None) -> list[dict]:
    """Neighborhood entries as plain dicts, nearest first, for prompts and
    rule replies; `row` is the resident's cache row as ProximityIndex.rows
    gives it and `table` is area_table(region, plan), each built if absent."""
    cache.require(radius)
    columns, distances = cache.row(resident_index) if row is None else row
    if table is None:
        table = area_table(region, plan)
    hx, hy = resident.home
    near = sorted((d, table[j]) for j, d in
                  zip(columns.tolist(), distances.tolist()) if d <= radius)
    # keys in sorted order, as the prompt's JSON encoder writes them
    return [{"area_id": area_id, "changeable": changeable,
             "direction": compass_label(cx - hx, cy - hy),
             "distance_m": d, "land_use": use}
            for d, (area_id, use, cx, cy, changeable) in near]


def _sample_speakers(rng: np.random.Generator, invited: Sequence[int],
                     prev: Optional[Sequence[int]], m_eff: int,
                     exchange_fraction: float) -> list[int]:
    invited = list(invited)
    if prev is None or exchange_fraction >= 1.0:
        picked = rng.choice(invited, size=m_eff, replace=False)
        return sorted(int(x) for x in picked)
    n_keep = min(int(round(m_eff * (1.0 - exchange_fraction))), len(prev))
    kept = [int(x) for x in rng.choice(list(prev), size=n_keep, replace=False)] \
        if n_keep else []
    kept_set = set(kept)
    pool = [x for x in invited if x not in kept_set]
    n_new = m_eff - len(kept)
    newcomers = [int(x) for x in rng.choice(pool, size=n_new, replace=False)] \
        if n_new else []
    return sorted(kept + newcomers)


def apply_edits(plan: Plan, edits: PlanEdit) -> Plan:
    assignment = dict(plan.assignment)
    for area_id, use in edits.edits:
        assignment[area_id] = use
    return Plan(assignment)


def _greedy_repair(evaluator: metrics_mod.CoverageCounts, community_id: int,
                   region: Region, rows: np.ndarray, rounds: Sequence[Round]
                   ) -> PlanEdit:
    """Apply to `evaluator` the most-requested edits that keep quotas
    feasible and never lower the mean satisfaction of the invited
    residents, whose positions in the population are `rows`."""
    tally: dict[tuple[int, LandUse], int] = {}
    for rnd in rounds:
        for op in rnd.opinions:
            for item in op.structured:
                area = region.areas_by_id.get(item.area_id)
                if area is None or not area.is_vacant \
                        or area.community_id != community_id:
                    continue
                key = (item.area_id, item.use)
                tally[key] = tally.get(key, 0) + 1
    order = sorted(tally, key=lambda k: (-tally[k], k[0], CANON_INDEX[k[1]]))

    codes = evaluator.codes
    column_of = dict(zip(region.vacant_ids, region.vacant_columns.tolist()))
    base = float(np.mean(evaluator.satisfaction[rows]))
    accepted: list[tuple[int, LandUse]] = []
    for area_id, use in order:
        column = column_of[area_id]
        old = int(codes[column])
        if old == USE_CODES[use] or not quota_spare(region, codes, old):
            continue
        evaluator.set_use(column, USE_CODES[use])
        cand_sat = float(np.mean(evaluator.satisfaction[rows]))
        if cand_sat - base >= 0:  # the edit's change of invited satisfaction
            base = cand_sat
            accepted.append((area_id, use))
        else:
            evaluator.set_use(column, old)
    if accepted:
        rationale = "greedy repair accepted: " + "; ".join(
            f"area {a} -> {u.value} ({tally[(a, u)]} requests)"
            for a, u in accepted)
    else:
        rationale = "greedy repair: no request improved invited satisfaction"
    return PlanEdit(tuple(accepted), rationale)


def _llm_revision(plan: Plan, community_id: int, region: Region,
                  planner_backend: Backend, summaries: Sequence[str]
                  ) -> tuple[PlanEdit, list[str]]:
    """The planner's edits, or none after a rejected reply and repair."""
    def check(reply: str) -> Union[PlanEdit, str]:
        edits = parse_plan_edits(reply, region, community_id)
        report = validate_plan(region, apply_edits(plan, edits))
        return edits if report.ok else report.summary()

    *rejected, last = ask_with_repair(
        planner_backend,
        render_revision_prompt(region, community_id, plan, summaries), check,
        lambda problem: (
            f"Those edits were not usable: {problem}. Reply again with a "
            'JSON object {"edits": [{"area_id": int, "use": str}]} touching '
            f"only changeable areas of community {community_id} and keeping "
            "every minimum count met."))
    notes = [f"revision attempt rejected: {problem}" for problem in rejected]
    if isinstance(last, PlanEdit):
        return last, notes
    notes.append(f"repair rejected: {last}; keeping previous plan")
    return PlanEdit((), "revision rejected after repair"), notes


def _proximity_index(region: Region, population: Population,
                     config: DiscussionConfig) -> ProximityIndex:
    """One index out to every radius a revision asks about: the metrics',
    the neighbourhood view's (the service radius) and the invite buffer."""
    return ProximityIndex(region, population.homes,
                          max(REACH_M, config.invite_buffer_m))


def run_community_revision(plan: Plan, community_id: int, region: Region,
                           population: Population, backend: Backend,
                           planner_backend: Backend,
                           config: DiscussionConfig = DiscussionConfig(),
                           *,
                           cache: Optional[ProximityIndex] = None,
                           coverage: Optional[metrics_mod.CoverageCounts] = None,
                           roleplay: bool = True) -> tuple[Plan, Transcript]:
    """One community through the fishbowl protocol; the plan stays frozen
    until the planner's revision at the end. Each accepted edit is one
    set_use on `coverage`, the plan's evaluator of every resident (built
    if absent), and the revised plan is read from its codes."""
    config.validate()
    if cache is None:
        cache = _proximity_index(region, population, config)
    if coverage is None:
        coverage = metrics_mod.plan_coverage(region, plan, population, cache,
                                             metrics_mod.needs(population))
    invited = invite(community_id, region, population,
                     config.invite_buffer_m, cache)
    rng = np.random.default_rng([config.seed, community_id])
    m_eff = min(config.speakers_per_round, len(invited))
    # the plan is frozen for the whole discussion
    table = area_table(region, plan)

    history: list[str] = []
    rounds: list[Round] = []
    prev: Optional[list[int]] = None
    for _ in range(config.rounds):
        speakers = _sample_speakers(rng, invited, prev, m_eff,
                                    config.exchange_fraction)
        opinions = []
        positions = [population.position_of[rid] for rid in speakers]
        # the speakers' exact distances come from one kernel call
        views = cache.rows(positions)
        for rid, pos, row in zip(speakers, positions, views):
            resident = population.resident(pos)
            view = view_payload(resident, region, plan, SERVICE_RADIUS_M,
                                cache, pos, row, table)
            if roleplay:
                desc, needs = resident.description, resident.needs
            else:
                desc, needs = llm_mod.GENERIC_PERSONA, rules.GENERIC_NEEDS
            text = backend.complete(render_opinion_prompt(
                desc, needs, view, history, roleplay=roleplay))
            view_ids = {e["area_id"] for e in view}
            structured = tuple(
                OpinionItem(item["area_id"], item["use"], item["reason"])
                for item in parse_opinion_response(text)
                if item["area_id"] in view_ids)
            opinions.append(Opinion(rid, text, structured))
        summary = llm_mod.summarize([o.text for o in opinions], backend)
        history.append(summary)
        rounds.append(Round(tuple(speakers), tuple(opinions), summary))
        prev = speakers

    notes: list[str] = []
    if isinstance(planner_backend, RuleBackend):
        rows = np.array([population.position_of[rid] for rid in invited],
                        dtype=np.intp)
        edits = _greedy_repair(coverage, community_id, region, rows, rounds)
    else:
        edits, notes = _llm_revision(plan, community_id, region,
                                     planner_backend, history)
        column_of = dict(zip(region.vacant_ids, region.vacant_columns.tolist()))
        for area_id, use in edits.edits:
            coverage.set_use(column_of[area_id], USE_CODES[use])
    new_plan = Plan.from_codes(region, coverage.codes)
    transcript = Transcript(
        community_id=community_id,
        rounds=tuple(rounds),
        final_edits=edits,
        plan_before=plan_digest(plan),
        plan_after=plan_digest(new_plan),
        notes=tuple(notes),
    )
    return new_plan, transcript


InitialPlanner = Callable[[Region], Plan]


def run_full_pipeline(region: Region, population: Population,
                      initial_planner: InitialPlanner, backend: Backend,
                      config: DiscussionConfig = DiscussionConfig(),
                      *,
                      roleplay: bool = True
                      ) -> tuple[Plan, list[Transcript], list[MetricsReport]]:
    """Initial plan, then sequential community revisions with a metrics
    report after every stage (index 0 = initial plan); the discussion
    backend also plans the revisions."""
    config.validate()
    plan = initial_planner(region)
    check = validate_plan(region, plan)
    if not check.ok:
        raise InvariantError(f"initial plan invalid: {check.summary()}")
    cache = _proximity_index(region, population, config)
    coverage = metrics_mod.plan_coverage(region, plan, population, cache,
                                         metrics_mod.needs(population))
    reports = [metrics_mod.coverage_report(coverage, population)]
    transcripts: list[Transcript] = []
    for cid in sorted(region.community_ids):
        try:
            plan, transcript = run_community_revision(
                plan, cid, region, population, backend, backend,
                config, cache=cache, coverage=coverage, roleplay=roleplay)
            transcripts.append(transcript)
        except EmptyCommunity as exc:
            log.warning("skipping community %s: %s", cid, exc)
        reports.append(metrics_mod.coverage_report(coverage, population))
    return plan, transcripts, reports


ABLATION_MODES = ("no-roleplay", "no-discussion", "single-planner")


def run_ablation(mode: str, region: Region, population: Population,
                 initial_planner: InitialPlanner, backend: Backend,
                 config: DiscussionConfig = DiscussionConfig()
                 ) -> tuple[Plan, list[Transcript], list[MetricsReport]]:
    """Pipeline variants that drop one ingredient at a time.

    Metrics always use the residents' original needs; no-roleplay only
    changes what the discussion sees.
    """
    if mode == "single-planner":
        plan = initial_planner(region)
        check = validate_plan(region, plan)
        if not check.ok:
            raise InvariantError(f"initial plan invalid: {check.summary()}")
        return plan, [], [metrics_mod.report(region, plan, population)]
    if mode == "no-discussion":
        return run_full_pipeline(region, population, initial_planner, backend,
                                 replace(config, rounds=1))
    if mode == "no-roleplay":
        return run_full_pipeline(region, population, initial_planner, backend,
                                 config, roleplay=False)
    raise ValueError(f"unknown ablation mode {mode!r}")
