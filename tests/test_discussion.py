import dataclasses
import json

import numpy as np
import pytest

from participlan.discussion import (
    ABLATION_MODES,
    DiscussionConfig,
    apply_edits,
    invite,
    render_transcript_text,
    run_ablation,
    run_community_revision,
    run_full_pipeline,
    save_transcript,
    _sample_speakers,
)
from participlan import fixtures
from participlan.errors import EmptyCommunity, NotPresent
from participlan.llm import PlanEdit, RuleBackend, render_revision_prompt
from participlan.metrics import (REACH_M, ProximityIndex, needs,
                                 plan_coverage, report, satisfaction)
from participlan.planners import PlannerConfig, random_plan
from participlan.population import synthesize
from participlan.region import (ASSIGNABLE_USES, LandUse, Plan, plan_digest,
                                validate_plan)

import oracles


def test_invite_uses_closed_buffer(grid16, hand_population):
    # resident 0 lives at (125,125) in area 1; all grid16 areas belong to
    # community 1, so everyone is invited
    invited = invite(1, grid16, hand_population)
    assert invited == (0, 1, 2, 3)
    with pytest.raises(NotPresent):
        invite(9, grid16, hand_population)


def test_invite_buffer_threshold(hlg, pop_hlg):
    wide = invite(1, hlg, pop_hlg, invite_buffer_m=500.0)
    narrow = invite(1, hlg, pop_hlg, invite_buffer_m=0.0)
    assert set(narrow) <= set(wide)
    assert len(narrow) > 0          # residents living inside count at 0 m
    assert len(wide) > len(narrow)  # the buffer pulls in neighbors
    # every invited resident is within the buffer of some community area
    areas = hlg.community_areas(1)
    for rid in wide:
        home = pop_hlg.residents[rid].home
        dist = min(oracles.poly_dist(home.x, home.y,
                                     [(p.x, p.y) for p in a.boundary])
                   for a in areas)
        assert dist <= 500.0 + 1e-9
    not_invited = {r.id for r in pop_hlg.residents} - set(wide)
    for rid in not_invited:
        home = pop_hlg.residents[rid].home
        dist = min(oracles.poly_dist(home.x, home.y,
                                     [(p.x, p.y) for p in a.boundary])
                   for a in areas)
        assert dist > 500.0


def test_invite_buffer_above_the_service_radius(hlg, pop_hlg):
    # an index sized only for the 500 m metrics would miss these residents
    for cid in hlg.community_ids:
        rings = [[(p.x, p.y) for p in a.boundary]
                 for a in hlg.community_areas(cid)]
        want = tuple(r.id for r in pop_hlg.residents
                     if min(oracles.poly_dist(r.home.x, r.home.y, ring)
                            for ring in rings) <= 800.0)
        assert invite(cid, hlg, pop_hlg, invite_buffer_m=800.0) == want
        assert len(want) > len(invite(cid, hlg, pop_hlg, 500.0))


@pytest.mark.parametrize("buffer", [0.0, -1.0, np.inf, np.nan])
def test_invite_buffer_must_be_positive_and_finite(buffer):
    with pytest.raises(ValueError, match="invite_buffer_m"):
        DiscussionConfig(invite_buffer_m=buffer).validate()


def test_sample_speakers_full_exchange():
    rng = np.random.default_rng(0)
    invited = list(range(100))
    first = _sample_speakers(rng, invited, None, 50, 1.0)
    assert len(first) == 50
    assert len(set(first)) == 50
    second = _sample_speakers(rng, invited, first, 50, 1.0)
    assert len(second) == 50
    assert sorted(first) == first


def test_sample_speakers_partial_exchange():
    rng = np.random.default_rng(1)
    invited = list(range(60))
    first = _sample_speakers(rng, invited, None, 40, 0.25)
    second = _sample_speakers(rng, invited, first, 40, 0.25)
    kept = set(first) & set(second)
    assert len(second) == 40
    assert len(set(second)) == 40
    assert set(second) <= set(invited)
    # at least (1 - 0.25) x 40 carry over; newcomers may readmit old speakers
    assert len(kept) >= 30


def test_partial_exchange_speakers_are_pinned():
    # the exact speakers of four seeded rounds that each keep 6 of 10
    rng = np.random.default_rng(5)
    invited = list(range(200, 230))
    got, prev = [], None
    for _ in range(4):
        prev = _sample_speakers(rng, invited, prev, 10, 0.4)
        got.append(prev)
    assert got == [
        [200, 201, 208, 211, 213, 214, 217, 219, 226, 228],
        [201, 203, 208, 211, 213, 217, 219, 221, 223, 228],
        [201, 203, 208, 211, 216, 217, 221, 223, 225, 228],
        [201, 205, 208, 209, 211, 216, 217, 221, 223, 227],
    ]


def test_apply_edits():
    plan = Plan({1: LandUse.PARK, 2: LandUse.SCHOOL})
    edit = PlanEdit(edits=((2, LandUse.CLINIC),), rationale="x")
    got = apply_edits(plan, edit)
    assert got.assignment == {1: LandUse.PARK, 2: LandUse.CLINIC}
    assert plan.assignment[2] is LandUse.SCHOOL  # original untouched


def test_community_revision_confined_and_monotone(hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=3, speakers_per_round=50, seed=7)
    plan = random_plan(hlg, PlannerConfig(seed=7))
    cache = ProximityIndex(hlg, pop_hlg.homes, config.invite_buffer_m)
    revised, transcript = run_community_revision(
        plan, 2, hlg, pop_hlg, rule_backend, rule_backend, config,
        cache=cache)
    community_ids = {a.id for a in hlg.community_areas(2)}
    for aid in hlg.vacant_ids:
        if aid not in community_ids:
            assert revised.assignment[aid] is plan.assignment[aid]
    assert validate_plan(hlg, revised).ok
    assert len(transcript.rounds) == 3
    for rnd in transcript.rounds:
        assert len(rnd.speaker_ids) <= 50
        assert len(set(rnd.speaker_ids)) == len(rnd.speaker_ids)
        assert rnd.summary
    # the greedy repair never lowers overall satisfaction
    before = satisfaction(hlg, plan, pop_hlg, cache=cache)
    after = satisfaction(hlg, revised, pop_hlg, cache=cache)
    assert after >= before - 1e-12


def test_greedy_repair_edits_on_dhm_are_pinned(dhm, rule_backend):
    # recorded from the from-scratch invited satisfaction; community 3
    # re-edits areas 1 and 12 and rejects some of its requests
    pop = synthesize(fixtures.hlg_like_demographics(1000), dhm, 1)
    plan = random_plan(dhm, PlannerConfig(seed=1))
    revised, transcript = run_community_revision(
        plan, 3, dhm, pop, rule_backend, rule_backend,
        DiscussionConfig(seed=1))
    assert [(a, u.value) for a, u in transcript.final_edits.edits] == [
        (3, "office"), (12, "park"), (1, "office"), (1, "park"),
        (12, "school"), (15, "office"), (33, "office"), (5, "hospital"),
        (31, "park")]
    assert transcript.plan_after == plan_digest(revised)
    assert plan_digest(revised) == "3cdcdbe4a6a3"


@pytest.mark.parametrize("community, seed, digest, rationale", [
    (1, 2, "d7663fcf05b7",
     "greedy repair accepted: area 51 -> office (7 requests); area 51 -> "
     "recreation (7 requests); area 42 -> office (6 requests); area 45 -> "
     "clinic (3 requests); area 65 -> park (3 requests); area 45 -> "
     "hospital (2 requests)"),
    (3, 5, "eeecdbee6cd5",
     "greedy repair accepted: area 3 -> park (6 requests); area 31 -> "
     "office (5 requests); area 15 -> park (3 requests); area 5 -> "
     "hospital (1 requests); area 5 -> recreation (1 requests); area 35 -> "
     "clinic (1 requests)"),
])
def test_greedy_repair_on_6k_residents_is_pinned(dhm, rule_backend,
                                                 community, seed, digest,
                                                 rationale):
    # thousands of invited residents, many sharing their areas in range
    pop = synthesize(fixtures.hlg_like_demographics(6000), dhm, seed)
    plan = random_plan(dhm, PlannerConfig(seed=seed))
    revised, transcript = run_community_revision(
        plan, community, dhm, pop, rule_backend, rule_backend,
        DiscussionConfig(seed=seed))
    assert plan_digest(revised) == digest
    assert transcript.final_edits.rationale == rationale


def test_community_revision_deterministic(hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=2, speakers_per_round=20, seed=3)
    plan = random_plan(hlg, PlannerConfig(seed=3))
    a, ta = run_community_revision(plan, 1, hlg, pop_hlg, rule_backend,
                                   rule_backend, config)
    b, tb = run_community_revision(plan, 1, hlg, pop_hlg, rule_backend,
                                   rule_backend, config)
    assert a.assignment == b.assignment
    assert ta == tb


def test_speakers_differ_across_communities(hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=1, speakers_per_round=10, seed=3)
    plan = random_plan(hlg, PlannerConfig(seed=3))
    _, t1 = run_community_revision(plan, 1, hlg, pop_hlg, rule_backend,
                                   rule_backend, config)
    _, t2 = run_community_revision(plan, 2, hlg, pop_hlg, rule_backend,
                                   rule_backend, config)
    assert t1.rounds[0].speaker_ids != t2.rounds[0].speaker_ids


def test_transcript_round_trip(tmp_path, hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=2, speakers_per_round=5, seed=1)
    plan = random_plan(hlg, PlannerConfig(seed=1))
    _, transcript = run_community_revision(plan, 3, hlg, pop_hlg,
                                           rule_backend, rule_backend, config)
    path = tmp_path / "t.json"
    save_transcript(transcript, path)
    doc = json.loads(path.read_text())
    assert doc["community_id"] == transcript.community_id
    assert len(doc["rounds"]) == len(transcript.rounds)
    for saved, rnd in zip(doc["rounds"], transcript.rounds):
        assert saved["speakers"] == list(rnd.speaker_ids)
        assert saved["summary"] == rnd.summary
        assert len(saved["opinions"]) == len(rnd.opinions)
        for op_doc, op in zip(saved["opinions"], rnd.opinions):
            assert op_doc["resident_id"] == op.resident_id
            assert op_doc["text"] == op.text
            assert op_doc["requests"] == [
                {"area_id": it.area_id, "use": it.use.value,
                 "reason": it.reason} for it in op.structured]
    assert doc["final_edits"] == {
        "edits": [{"area_id": a, "use": u.value}
                  for a, u in transcript.final_edits.edits],
        "rationale": transcript.final_edits.rationale}
    assert doc["notes"] == list(transcript.notes)
    assert (doc["plan_before"], doc["plan_after"]) == (
        transcript.plan_before, transcript.plan_after)
    text = render_transcript_text(transcript)
    assert f"Community {transcript.community_id}" in text
    assert "Round 1" in text


def test_pipeline_trajectory_and_order(hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=2, speakers_per_round=10, seed=5)
    final, transcripts, reports = run_full_pipeline(
        hlg, pop_hlg, random_plan(hlg, PlannerConfig(seed=5)),
        rule_backend, config)
    assert len(reports) == 1 + len(hlg.community_ids)
    assert [t.community_id for t in transcripts] == list(hlg.community_ids)
    assert validate_plan(hlg, final).ok
    sats = [rep.satisfaction for rep in reports]
    assert all(b >= a - 1e-12 for a, b in zip(sats, sats[1:]))


def test_pipeline_rejects_invalid_initial_plan(hlg, pop_hlg, rule_backend):
    from participlan.errors import InvariantError
    with pytest.raises(InvariantError):
        run_full_pipeline(hlg, pop_hlg, Plan({}), rule_backend,
                          DiscussionConfig(rounds=1, speakers_per_round=5))


def test_pipeline_validates_the_config_before_planning(hlg, pop_hlg,
                                                      rule_backend):
    planned = []

    def planner(region):
        planned.append(region)
        return random_plan(region, PlannerConfig(seed=1))

    with pytest.raises(ValueError, match="invite_buffer_m must be positive "
                       "and finite"):
        config = DiscussionConfig(invite_buffer_m=np.inf)
        run_full_pipeline(hlg, pop_hlg, planner(hlg), rule_backend, config)
    assert planned == []


def test_empty_community_is_skipped(grid16, demo_spec_small, rule_backend):
    # carve grid16 into two communities where community 2 is a single
    # vacant cell far from all homes, giving it areas but no residents
    region = dataclasses.replace(
        grid16,
        areas=tuple(
            dataclasses.replace(a, community_id=2 if a.id == 4 else 1)
            for a in grid16.areas),
        communities=((1, "main"), (2, "annex")),
    )
    from participlan.population import synthesize
    pop = synthesize(demo_spec_small, region, seed=2)
    keep = [r for r in pop.residents
            if oracles.poly_dist(r.home.x, r.home.y,
                                 [(p.x, p.y) for p in
                                  region.areas_by_id[4].boundary]) > 500.0]
    from participlan.population import Population
    pop = Population(residents=tuple(keep), seed=2)
    config = DiscussionConfig(rounds=1, speakers_per_round=5, seed=2)
    final, transcripts, reports = run_full_pipeline(
        region, pop, random_plan(region, PlannerConfig(seed=2)),
        rule_backend, config)
    assert [t.community_id for t in transcripts] == [1]
    assert len(reports) == 3  # initial + one per community, even skipped


def test_ablation_single_planner(hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=2, speakers_per_round=10, seed=5)
    initial = random_plan(hlg, PlannerConfig(seed=5))
    final, transcripts, reports = run_ablation(
        "single-planner", hlg, pop_hlg, initial, rule_backend,
        config)
    assert final.assignment == initial.assignment
    assert transcripts == []
    assert len(reports) == 1


def test_ablation_no_discussion_single_round(hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=3, speakers_per_round=10, seed=5)
    _, transcripts, _ = run_ablation(
        "no-discussion", hlg, pop_hlg,
        random_plan(hlg, PlannerConfig(seed=5)), rule_backend, config)
    assert all(len(t.rounds) == 1 for t in transcripts)


def test_ablation_no_roleplay_uses_generic_voice(hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=1, speakers_per_round=5, seed=5)
    _, transcripts, _ = run_ablation(
        "no-roleplay", hlg, pop_hlg,
        random_plan(hlg, PlannerConfig(seed=5)), rule_backend, config)
    assert transcripts
    with pytest.raises(ValueError):
        run_ablation("no-such-mode", hlg, pop_hlg,
                     random_plan(hlg, PlannerConfig(seed=5)),
                     rule_backend, config)
    assert set(ABLATION_MODES) == {"no-roleplay", "no-discussion",
                                   "single-planner"}


class _RecordingBackend:
    """Returns `replies` in order and keeps the messages of each request."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.seen = []

    def complete(self, messages):
        self.seen.append(list(messages))
        return self.replies.pop(0)


def _edits_reply(*edits):
    return ("Revised.\n```json\n" + json.dumps(
        {"edits": [{"area_id": a, "use": u.value} for a, u in edits]})
        + "\n```")


def _swap_in_community(region, plan, community_id):
    """Two edits that swap the uses of two changeable areas of the
    community, so every count stays as it is."""
    areas = [a.id for a in region.community_areas(community_id) if a.is_vacant]
    a = areas[0]
    b = next(x for x in areas if plan.assignment[x] is not plan.assignment[a])
    return (a, plan.assignment[b]), (b, plan.assignment[a])


def test_llm_revision_takes_the_repaired_edits(hlg, pop_hlg, rule_backend):
    config = DiscussionConfig(rounds=1, speakers_per_round=3, seed=4)
    plan = random_plan(hlg, PlannerConfig(seed=4))
    outside = next(a.id for a in hlg.community_areas(1) if a.is_vacant)
    swap = _swap_in_community(hlg, plan, 2)
    planner = _RecordingBackend([_edits_reply((outside, LandUse.PARK)),
                                 _edits_reply(*swap)])
    revised, transcript = run_community_revision(
        plan, 2, hlg, pop_hlg, rule_backend, planner, config)
    assert revised.assignment == apply_edits(
        plan, PlanEdit(swap)).assignment
    assert transcript.final_edits.edits == swap
    assert transcript.notes == (
        f"revision attempt rejected: edit touches area {outside} outside "
        "community 2",)
    first, second = planner.seen
    summaries = [r.summary for r in transcript.rounds]
    assert first == render_revision_prompt(hlg, 2, plan, summaries)
    assert second[:len(first)] == first
    assert second[-2].role == "assistant"
    assert second[-1].content == (
        f"Those edits were not usable: edit touches area {outside} outside "
        "community 2. Reply again with a JSON object "
        '{"edits": [{"area_id": int, "use": str}]} touching only changeable '
        "areas of community 2 and keeping every minimum count met.")


def test_llm_revision_keeps_the_plan_after_two_bad_replies(hlg, pop_hlg,
                                                           rule_backend):
    config = DiscussionConfig(rounds=1, speakers_per_round=3, seed=4)
    plan = random_plan(hlg, PlannerConfig(seed=4))
    outside = next(a.id for a in hlg.community_areas(1) if a.is_vacant)
    planner = _RecordingBackend(["no edits here",
                                 _edits_reply((outside, LandUse.PARK))])
    revised, transcript = run_community_revision(
        plan, 2, hlg, pop_hlg, rule_backend, planner, config)
    assert revised.assignment == plan.assignment
    assert transcript.final_edits == PlanEdit((),
                                              "revision rejected after repair")
    assert transcript.plan_after == transcript.plan_before
    assert transcript.notes == (
        "revision attempt rejected: no JSON object found in reply",
        f"repair rejected: edit touches area {outside} outside community 2; "
        "keeping previous plan")
    assert len(planner.seen) == 2


def test_llm_revision_naming_an_area_twice_keeps_its_last_use(
        hlg, pop_hlg, rule_backend):
    # area a first takes a use no swap gives it, then b's use: only the
    # last edit of an area counts, so the reply is a quota-keeping swap
    config = DiscussionConfig(rounds=1, speakers_per_round=3, seed=4)
    plan = random_plan(hlg, PlannerConfig(seed=4))
    (a, use_b), (b, use_a) = _swap_in_community(hlg, plan, 2)
    first = next(u for u in ASSIGNABLE_USES if u not in (use_a, use_b))
    edits = ((a, first), (a, use_b), (b, use_a))
    cache = ProximityIndex(hlg, pop_hlg.homes, REACH_M)
    coverage = plan_coverage(hlg, plan, pop_hlg, cache, needs(pop_hlg))
    revised, transcript = run_community_revision(
        plan, 2, hlg, pop_hlg, rule_backend,
        _RecordingBackend([_edits_reply(*edits)]), config,
        cache=cache, coverage=coverage)
    assert transcript.final_edits.edits == edits
    assert revised.assignment[a] is use_b
    assert revised.assignment == apply_edits(plan, PlanEdit(edits)).assignment
    fresh = plan_coverage(hlg, revised, pop_hlg, cache, needs(pop_hlg))
    assert np.array_equal(coverage.codes, fresh.codes)
    assert np.array_equal(coverage.counts, fresh.counts)
    assert np.array_equal(coverage.hits, fresh.hits)
    assert np.array_equal(coverage.satisfaction, fresh.satisfaction)


class _RevisionScript:
    """Answers opinion and summary prompts as the rule backend does, and
    revision prompts with `replies` in order."""

    def __init__(self, replies):
        self.rules = RuleBackend()
        self.replies = list(replies)

    def complete(self, messages):
        if "[role:plan_revision]" in messages[0].content:
            return self.replies.pop(0)
        return self.rules.complete(messages)


def test_llm_revisions_reach_every_stage_report(hlg, pop_hlg):
    # hlg's four communities merged into two: one takes a swap, the other
    # keeps its plan after a reply and its repair are both rejected
    region = dataclasses.replace(
        hlg,
        areas=tuple(dataclasses.replace(a, community_id=1 + (a.community_id > 2))
                    for a in hlg.areas),
        communities=((1, "west"), (2, "east")))
    initial = random_plan(region, PlannerConfig(seed=4))
    swap = _swap_in_community(region, initial, 1)
    outside = next(a.id for a in region.community_areas(1) if a.is_vacant)
    backend = _RevisionScript([_edits_reply(*swap), "no edits here",
                               _edits_reply((outside, LandUse.PARK))])
    final, transcripts, reports = run_full_pipeline(
        region, pop_hlg, initial, backend,
        DiscussionConfig(rounds=1, speakers_per_round=3, seed=4))
    assert [t.final_edits.edits for t in transcripts] == [swap, ()]
    assert backend.replies == []
    swapped = apply_edits(initial, PlanEdit(swap))
    assert final.assignment == swapped.assignment
    # each stage's report equals the report of that stage's plan from
    # scratch, and the swap moved it
    assert reports == [report(region, plan, pop_hlg)
                       for plan in (initial, swapped, swapped)]
    assert reports[1] != reports[0]
