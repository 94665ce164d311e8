"""Deterministic resident behavior: needs, self-descriptions, opinions.

These rules stand in for a chat model when running offline. They are
pure functions of their inputs so that the simulator stays reproducible
and so property tests can reason about them directly.
"""
from __future__ import annotations

import json
from typing import Mapping, Optional, Sequence

from .region import ASSIGNABLE_USES, CANON_INDEX, LandUse, quota_order

#: Fallback preference order used to pad short needs lists.
DEFAULT_RANKING = (
    LandUse.PARK,
    LandUse.BUSINESS,
    LandUse.RECREATION,
    LandUse.SCHOOL,
    LandUse.CLINIC,
    LandUse.OFFICE,
    LandUse.HOSPITAL,
    LandUse.OPEN_SPACE,
)

#: What a resident with no distinguishing traits would ask for.
GENERIC_NEEDS = DEFAULT_RANKING[:3]

MIN_NEEDS = 3
MAX_NEEDS = 5


#: The weights each (fact, value) adds to a resident's needs.
DEFAULT_NEEDS_RULES: dict[tuple[str, str], tuple[tuple[LandUse, int], ...]] = {
    ("background", "parenting family"):
        ((LandUse.SCHOOL, 5), (LandUse.CLINIC, 4), (LandUse.PARK, 3)),
    ("background", "family with school children"):
        ((LandUse.SCHOOL, 5), (LandUse.RECREATION, 3), (LandUse.BUSINESS, 2)),
    ("background", "elderly living alone"):
        ((LandUse.HOSPITAL, 5), (LandUse.PARK, 4), (LandUse.CLINIC, 3)),
    ("background", "family with a sick member"):
        ((LandUse.HOSPITAL, 5), (LandUse.CLINIC, 4), (LandUse.PARK, 2)),
    ("background", "drifter"):
        ((LandUse.BUSINESS, 4), (LandUse.OFFICE, 4), (LandUse.RECREATION, 3)),
    ("background", "office worker"):
        ((LandUse.OFFICE, 5), (LandUse.BUSINESS, 3), (LandUse.RECREATION, 3)),
    ("age_band", "65+"):
        ((LandUse.HOSPITAL, 4), (LandUse.PARK, 3), (LandUse.CLINIC, 2)),
    ("age_band", "18-29"):
        ((LandUse.RECREATION, 4), (LandUse.BUSINESS, 3), (LandUse.OFFICE, 2)),
    ("age_band", "30-44"):
        ((LandUse.OFFICE, 4), (LandUse.SCHOOL, 2), (LandUse.BUSINESS, 2)),
    ("age_band", "45-64"):
        ((LandUse.OFFICE, 3), (LandUse.PARK, 2), (LandUse.BUSINESS, 2)),
    ("family_size", "4"): ((LandUse.SCHOOL, 3), (LandUse.PARK, 2)),
    ("family_size", "5+"): ((LandUse.SCHOOL, 3), (LandUse.PARK, 2)),
    ("family_size", "1"): ((LandUse.RECREATION, 2), (LandUse.BUSINESS, 2)),
    ("education", "bachelor"): ((LandUse.OFFICE, 2), (LandUse.RECREATION, 1)),
    ("education", "postgraduate"): ((LandUse.OFFICE, 2), (LandUse.RECREATION, 1)),
}


def needs_from_rules(facts: Mapping[str, Optional[str]]) -> tuple[LandUse, ...]:
    """Derive a 3..5 item needs list from resident facts.

    The DEFAULT_NEEDS_RULES weights of each (fact, value) given
    accumulate per land use; the top five by (weight desc, canonical
    order) survive, padded from DEFAULT_RANKING if fewer than three
    uses got a weight.
    """
    weights: dict[LandUse, int] = {}
    for fact in facts.items():
        for use, w in DEFAULT_NEEDS_RULES.get(fact, ()):
            weights[use] = weights.get(use, 0) + w
    ordered = sorted(weights, key=lambda u: (-weights[u], CANON_INDEX[u]))
    needs = list(ordered[:MAX_NEEDS])
    for use in DEFAULT_RANKING:
        if len(needs) >= MIN_NEEDS:
            break
        if use not in needs:
            needs.append(use)
    return tuple(needs)


def describe(facts: Mapping[str, Optional[str]]) -> str:
    """One-sentence self description covering all demographic facts."""
    gender = facts.get("gender", "person")
    age = facts.get("age_band", "unknown age")
    edu = facts.get("education", "unknown")
    fam = facts.get("family_size", "unknown")
    bg = facts.get("background")
    base = (f"I am a {gender} resident aged {age} with {edu} education, "
            f"living in a household of {fam}")
    if bg:
        return base + f", and my circumstances are best described as: {bg}."
    return base + "."


# ---------------------------------------------------------------------------
# Rule-backend reply generators. Payloads are plain dicts mirroring the
# fenced JSON blocks that prompts carry; replies are strings shaped like a
# cooperative chat model's answer, with a fenced JSON block where the
# protocol expects structure.


_encode = json.JSONEncoder(sort_keys=True).encode


def fence(doc: dict) -> str:
    """`doc` as a fenced JSON block, the form prompts and replies carry."""
    return "```json\n" + _encode(doc) + "\n```"


def fenced_blocks(text: str) -> list[str]:
    """The text of each ```json block in `text`, left to right: from the
    end of the opening fence and the whitespace after it to the next ```."""
    blocks = []
    start = text.find("```json")
    while start >= 0:
        begin = start + 7
        while begin < len(text) and text[begin].isspace():
            begin += 1
        end = text.find("```", begin)
        if end < 0:
            break
        blocks.append(text[begin:end])
        start = text.find("```json", end + 3)
    return blocks


def last_fenced_doc(texts: Sequence[str]):
    """The JSON value of the last fenced block in `texts` that parses, or
    {} if none does; earlier blocks are not decoded."""
    for text in reversed(texts):
        for block in reversed(fenced_blocks(text)):
            try:
                return json.loads(block)
            except (json.JSONDecodeError, RecursionError):
                pass
    return {}


def opinion_reply(payload: dict) -> str:
    """Ask for each unmet need at the nearest changeable area in view.

    A need is unmet when no area of that use sits strictly within the
    service radius. Requests prefer close vacant areas and avoid piling
    two uses onto one area.
    """
    needs = [LandUse.parse(n) for n in payload.get("needs", [])]
    radius = float(payload.get("service_radius_m", 500.0))
    entries = payload.get("view", [])

    met = {LandUse.parse(use) for e in entries
           if (use := e.get("land_use")) is not None
           and float(e["distance_m"]) < radius}

    changeable = sorted(
        [e for e in entries if e.get("changeable")],
        key=lambda e: (float(e["distance_m"]), int(e["area_id"])))

    requests = []
    used_areas = set()
    for need in needs:
        if need in met:
            continue
        slot = next((e for e in changeable
                     if int(e["area_id"]) not in used_areas), None)
        if slot is None:
            break
        used_areas.add(int(slot["area_id"]))
        requests.append({
            "area_id": int(slot["area_id"]),
            "use": need.value,
            "reason": f"no {need.value} within {radius:.0f} m of my home",
        })

    if not requests:
        text = "My daily needs are already covered nearby; I have no change to request."
        return text + "\n" + fence({"requests": []})

    lines = ["Some facilities I rely on are too far from where I live."]
    for r in requests:
        lines.append(f"Please make area {r['area_id']} a {r['use']}: {r['reason']}.")
    return "\n".join(lines) + "\n" + fence({"requests": requests})


def _extract_requests(text: str) -> list[dict]:
    requests = []
    for block in fenced_blocks(text):
        try:
            doc = json.loads(block)
        except (json.JSONDecodeError, RecursionError):
            continue
        if isinstance(doc, dict):
            requests += doc.get("requests", [])
    return requests


def summary_reply(payload: dict) -> str:
    """Aggregate a round of opinions into counted change requests."""
    opinions = payload.get("opinions", [])
    tally: dict[tuple[int, str], int] = {}
    for text in opinions:
        for r in _extract_requests(text):
            try:
                key = (int(r["area_id"]), LandUse.parse(r["use"]).value)
            except (KeyError, ValueError, TypeError):
                continue
            tally[key] = tally.get(key, 0) + 1

    if not tally:
        return ("Residents voiced no concrete change requests this round.\n"
                + fence({"requests": []}))

    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    lines = [f"{len(opinions)} residents spoke; their requests, by support:"]
    requests = []
    for (area_id, use), count in ranked:
        lines.append(f"- {count} asked for area {area_id} to become a {use}")
        requests.append({"area_id": area_id, "use": use, "count": count})
    return "\n".join(lines) + "\n" + fence({"requests": requests})


def initial_plan_reply(payload: dict) -> str:
    """Quota-first deterministic assignment over the given vacant areas."""
    vacant = [int(v) for v in payload.get("vacant_ids", [])]
    req = {LandUse.parse(k): int(v)
           for k, v in payload.get("requirements", {}).items()}
    assignment: dict[int, str] = {}
    i = 0
    for use in quota_order(req):
        for _ in range(req.get(use, 0)):
            assignment[vacant[i]] = use.value
            i += 1
    cycle = 0
    while i < len(vacant):
        assignment[vacant[i]] = ASSIGNABLE_USES[cycle % len(ASSIGNABLE_USES)].value
        i += 1
        cycle += 1
    doc = {"assignments": {str(k): assignment[k] for k in sorted(assignment)}}
    return ("Here is a complete assignment meeting every quota.\n" + fence(doc))

