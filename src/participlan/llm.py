"""Chat backends, prompt templates, and reply parsing.

Three interchangeable backends sit behind one `complete(messages)`
interface: a remote chat-completions client, a deterministic rule-based
stand-in, and a scripted record/replay backend. All language-model
traffic in the package flows through a backend handle built here, so
nothing else performs network I/O.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import requests

from . import rules
from .errors import (BackendError, BadReply, ParseError, RateLimited,
                     RepairFailed, TransportError, check_count)
from .geometry import compass_label
from .metrics import SERVICE_RADIUS_M
from .region import (ASSIGNABLE_USES, LandUse, Plan, Region, validate_plan)

log = logging.getLogger(__name__)

_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"bad message role {self.role!r}")
        if not self.content:
            raise ValueError("empty message content")

    def to_dict(self) -> dict:
        return {"role": self.role, "content": self.content}


def system(content: str) -> ChatMessage:
    return ChatMessage("system", content)


def user(content: str) -> ChatMessage:
    return ChatMessage("user", content)


def assistant(content: str) -> ChatMessage:
    return ChatMessage("assistant", content)


@dataclass(frozen=True)
class BackendConfig:
    """A backend's settings. Each field is checked on its own when built;
    what a kind needs of the other fields (an endpoint and a model, a
    transcript) is checked by its backend's constructor, as BackendError."""
    kind: str = "rule"
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    max_tokens: Optional[int] = None
    timeout_s: float = 60.0
    max_retries: int = 3
    api_key_env: str = "OPENAI_API_KEY"
    transcript_path: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind not in ("remote", "rule", "scripted"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if not self.temperature >= 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens is not None:
            check_count("max_tokens", self.max_tokens, 1)
        check_count("max_retries", self.max_retries, 0)
        if not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout_s must be positive and finite")


@dataclass
class Telemetry:
    requests: int = 0
    retries: int = 0
    rate_limited: int = 0


def request_digest(model: str, temperature: float,
                   messages: Sequence[ChatMessage]) -> str:
    blob = json.dumps({
        "model": model,
        "temperature": temperature,
        "messages": [m.to_dict() for m in messages],
    }, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class RemoteBackend:
    """Chat-completions HTTP client with retry, backoff, and recording.

    `transport` has the signature of requests.post and is injectable so
    tests can capture the exact wire payload without a network. Building
    one without an endpoint, a model or the API key raises BackendError.
    """

    def __init__(self, config: BackendConfig,
                 transport: Optional[Callable] = None,
                 sleeper: Callable[[float], None] = time.sleep,
                 record_to: Optional[list] = None):
        if not (config.endpoint and config.model):
            raise BackendError("remote backend needs endpoint and model")
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise BackendError(
                f"environment variable {config.api_key_env} is not set; "
                f"the remote backend needs an API key before any work starts")
        self.config = config
        self.telemetry = Telemetry()
        self._key = key
        self._transport = transport if transport is not None else requests.post
        self._sleep = sleeper
        self._record = record_to
        self._lock = threading.Lock()

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        cfg = self.config
        body = {
            "model": cfg.model,
            "messages": [m.to_dict() for m in messages],
            "temperature": cfg.temperature,
        }
        if cfg.max_tokens is not None:
            body["max_tokens"] = cfg.max_tokens
        if log.isEnabledFor(logging.DEBUG):
            log.debug("request to %s: %s", cfg.endpoint, json.dumps(body)[:2000])
        text = self._send(body)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("reply: %s", text[:2000])
        if self._record is not None:
            digest = request_digest(cfg.model, cfg.temperature, list(messages))
            with self._lock:
                self._record.append({"request_digest": digest,
                                     "reply_text": text})
        return text

    def _bump(self, field_name: str) -> None:
        with self._lock:
            setattr(self.telemetry, field_name,
                    getattr(self.telemetry, field_name) + 1)

    def _send(self, body: dict) -> str:
        cfg = self.config
        headers = {"Authorization": f"Bearer {self._key}",
                   "Content-Type": "application/json"}
        attempt = 0
        while True:
            # a network error, a 429 and a 5xx are retried alike; a 429
            # waits as Retry-After says, capped at the timeout
            wait, cause = 0.5 * 2 ** attempt, None
            tries = f"after {attempt + 1} attempts"
            try:
                resp = self._transport(cfg.endpoint, json=body,
                                       headers=headers, timeout=cfg.timeout_s)
            except requests.RequestException as exc:
                cause = exc
            self._bump("requests")
            if cause is not None:
                error = TransportError(f"network failure {tries}: {cause}")
            elif resp.status_code == 429:
                self._bump("rate_limited")
                error = RateLimited(f"rate limited {tries}")
                wait = min(_retry_after(resp, wait), cfg.timeout_s)
            elif 500 <= resp.status_code < 600:
                error = TransportError(f"server error {resp.status_code} {tries}")
            else:
                break
            if attempt >= cfg.max_retries:
                raise error from cause
            self._sleep(wait)
            attempt += 1
            self._bump("retries")
        if resp.status_code != 200:
            raise TransportError(f"unexpected status {resp.status_code}")
        try:
            data = resp.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError,
                RecursionError) as exc:
            raise BadReply(f"malformed completion body: {exc!r}") from exc
        if not content:
            raise BadReply("empty completion content")
        return content


def _retry_after(resp, fallback: float) -> float:
    """Seconds to wait after a 429: Retry-After, or `fallback` if the
    header is absent, not a number, negative or not finite."""
    try:
        wait = float(resp.headers.get("Retry-After", ""))
    except (TypeError, ValueError):
        return fallback
    return wait if 0.0 <= wait < math.inf else fallback


class ScriptedBackend:
    """Replays a recorded transcript in order; errors on exhaustion.

    Entries with a request_digest are verified against the incoming
    request so drifted prompts fail loudly; entries with digest null
    replay unconditionally (hand-written scripts). Building one without a
    transcript_path raises BackendError.
    """

    def __init__(self, config: BackendConfig):
        if not config.transcript_path:
            raise BackendError("scripted backend needs transcript_path")
        self.config = config
        self.telemetry = Telemetry()
        self._entries = load_transcript_file(config.transcript_path)
        self._index = 0
        self._lock = threading.Lock()

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        with self._lock:
            if self._index >= len(self._entries):
                raise BackendError(
                    f"scripted transcript exhausted after {len(self._entries)} replies")
            entry = self._entries[self._index]
            expected = entry.get("request_digest")
            if expected:
                got = request_digest(self.config.model,
                                     self.config.temperature, list(messages))
                if got != expected:
                    raise BackendError(
                        f"scripted transcript mismatch at entry {self._index}: "
                        f"request digest {got[:12]} != recorded {expected[:12]}")
            self._index += 1
            self.telemetry.requests += 1
            return entry["reply_text"]


def load_transcript_file(path: Union[str, Path]) -> list[dict]:
    """A JSON list of {"reply_text": str, "request_digest": str or null}."""
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, list):
        raise ParseError(f"{path}: transcript must be a JSON list")
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: entry {i} is not a JSON object")
        if not isinstance(entry.get("reply_text"), str) or not entry["reply_text"]:
            raise ParseError(f"{path}: entry {i} lacks a non-empty reply_text")
        if not isinstance(entry.get("request_digest"), (str, type(None))):
            raise ParseError(f"{path}: entry {i} has a non-string request_digest")
    return doc


def save_transcript_file(records: Sequence[dict], path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(list(records), indent=2) + "\n")


_ROLE_TAG_RE = re.compile(r"\[role:([a-z_]+)\]")


class RuleBackend:
    """Deterministic offline stand-in dispatching on the prompt's role tag."""

    def __init__(self):
        self.telemetry = Telemetry()
        self._lock = threading.Lock()

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        with self._lock:
            self.telemetry.requests += 1
            tag = None
            for m in messages:
                if m.role == "system":
                    hit = _ROLE_TAG_RE.search(m.content)
                    if hit:
                        tag = hit.group(1)
                    break
            if tag is None:
                raise BackendError("rule backend: no role tag in system message")
            payload = rules.last_fenced_doc(
                [m.content for m in messages if m.role == "user"])
            if tag == "resident_opinion":
                return rules.opinion_reply(payload)
            if tag == "summarize":
                return rules.summary_reply(payload)
            if tag == "initial_plan":
                return rules.initial_plan_reply(payload)
            raise BackendError(f"rule backend: unknown role tag {tag!r}")


Backend = Union[RemoteBackend, ScriptedBackend, RuleBackend]


def make_backend(config: BackendConfig,
                 transport: Optional[Callable] = None,
                 record_to: Optional[list] = None) -> Backend:
    if config.kind == "remote":
        return RemoteBackend(config, transport=transport, record_to=record_to)
    if config.kind == "scripted":
        return ScriptedBackend(config)
    return RuleBackend()


# ---------------------------------------------------------------------------
# Prompt templates. Every prompt ends with a fenced JSON payload carrying
# the machine-readable inputs, which is what the rule backend consumes;
# remote models read the prose above it.


_ALLOWED = ", ".join(u.value for u in ASSIGNABLE_USES)


#: Persona used when resident profiles are withheld from the prompts.
GENERIC_PERSONA = "You are a resident living in a region in the city."


_NEIGHBORHOOD_HEAD = (f"Your neighborhood (within {SERVICE_RADIUS_M:.0f} m "
                      "of home):")


def render_opinion_prompt(description: str, needs: Sequence[LandUse],
                          view_entries: Sequence[dict],
                          summaries: Sequence[str],
                          roleplay: bool = True) -> list[ChatMessage]:
    need_values = [u.value for u in needs]
    lines = [f"Your needs: {', '.join(need_values)}.", _NEIGHBORHOOD_HEAD]
    lines += [f"- area {e['area_id']}: {e.get('land_use') or 'unassigned'}, "
              f"{e['distance_m']:.0f} m {e['direction']}"
              f"{' (changeable)' if e.get('changeable') else ''}"
              for e in view_entries] or ["- (no areas within range)"]
    if summaries:
        lines.append("Discussion so far:")
        lines += [f"[summary of round {i}] {s}"
                  for i, s in enumerate(summaries, start=1)]
    lines.append(
        "Say how well the current plan serves you. If you want changes, end "
        'with a JSON object {"requests": [{"area_id": int, "use": str, '
        '"reason": str}]} touching only changeable areas; otherwise end with '
        '{"requests": []}.')
    lines.append(rules.fence({
        "needs": need_values,
        "service_radius_m": SERVICE_RADIUS_M,
        "view": list(view_entries),
    }))
    if roleplay:
        sys_text = ("[role:resident_opinion] You are role-playing a specific "
                    "city resident in a planning discussion. Stay in "
                    "character. " + description)
    else:
        sys_text = "[role:resident_opinion] " + GENERIC_PERSONA
    return [
        system(sys_text),
        user("\n".join(lines)),
    ]


def render_summary_prompt(opinions: Sequence[str]) -> list[ChatMessage]:
    lines = ["Opinions from this round:"]
    for i, text in enumerate(opinions, start=1):
        lines.append(f"--- opinion {i} ---")
        lines.append(text)
    lines.append(
        "Summarize the round for the planner: list each requested change as "
        "'area, requested use, number of supporters', most supported first. "
        'End with a JSON object {"requests": [{"area_id": int, "use": str, '
        '"count": int}]}.')
    lines.append(rules.fence({"opinions": list(opinions)}))
    return [
        system("[role:summarize] You compress one round of resident opinions "
               "into a short brief for the planner, keeping exact counts."),
        user("\n".join(lines)),
    ]


def _position_text(region: Region, area) -> str:
    cx, cy = region.center
    ax, ay = area.centroid
    d = math.hypot(ax - cx, ay - cy)
    if d < 1.0:
        return "at the region center"
    return f"{d:.0f} m {compass_label(ax - cx, ay - cy)} of the region center"


_NEIGHBORS_SHOWN = 3


def _neighbor_text(region: Region, area) -> str:
    ax, ay = area.centroid
    others = []
    for b in region.areas:
        if b.id == area.id:
            continue
        bx, by = b.centroid
        others.append((math.hypot(bx - ax, by - ay), b.id, bx - ax, by - ay))
    others.sort(key=lambda t: (t[0], t[1]))
    parts = [f"{bid} ({compass_label(dx, dy)}, {d:.0f} m)"
             for d, bid, dx, dy in others[:_NEIGHBORS_SHOWN]]
    return "nearest: " + ", ".join(parts)


def render_initial_plan_prompt(region: Region) -> list[ChatMessage]:
    """Planner prompt describing every area in text plus the quota table.

    Each area id appears exactly once as an 'Area <id>' token; neighbor
    references use bare ids so completeness checks stay simple.
    """
    req = region.requirements
    name_by_cid = dict(region.communities)
    lines = [f"Region {region.name}: {len(region.areas)} areas, "
             f"{len(region.vacant_ids)} of them vacant. Communities: "
             + "; ".join(f"{cid} = {name}" for cid, name in region.communities)
             + "."]
    for a in region.areas:
        status = "vacant" if a.is_vacant else f"fixed {a.fixed_use.value}"
        lines.append(
            f"Area {a.id} - community {a.community_id} ({name_by_cid[a.community_id]}), "
            f"{status}, {_position_text(region, a)}; {_neighbor_text(region, a)}")
    lines.append("Required minimum counts over the vacant areas:")
    for use in ASSIGNABLE_USES:
        lines.append(f"- {use.value}: at least {req.get(use, 0)}")
    lines.append(
        f"Assign one land use ({_ALLOWED}) to every vacant area so that each "
        "minimum count is met. Put services near residents and spread green "
        "space. Reply with a single JSON object "
        '{"assignments": {"<area_id>": "<land_use>"}} covering every vacant '
        "area id exactly once.")
    lines.append(rules.fence({
        "vacant_ids": list(region.vacant_ids),
        "requirements": {u.value: int(req.get(u, 0)) for u in ASSIGNABLE_USES},
    }))
    return [
        system("[role:initial_plan] You are an urban planner allocating land "
               "uses to the vacant areas of a renovated district. Follow the "
               "quota table exactly and reply in strict JSON."),
        user("\n".join(lines)),
    ]


def render_revision_prompt(region: Region, community_id: int, plan: Plan,
                           summaries: Sequence[str]) -> list[ChatMessage]:
    name_by_cid = dict(region.communities)
    lines = [f"You are revising community {community_id} "
             f"({name_by_cid.get(community_id, '?')}) of region {region.name}."]
    lines.append("Current assignment in this community:")
    for a in region.community_areas(community_id):
        use = plan.use_of(a)
        tag = "changeable" if a.is_vacant else "fixed"
        lines.append(f"- area {a.id}: {use.value if use else 'unassigned'} ({tag})")
    counts = validate_plan(region, plan).counts
    lines.append("Region-wide counts (minimum required in parentheses):")
    for use in ASSIGNABLE_USES:
        lines.append(f"- {use.value}: {counts[use]} ({region.requirements.get(use, 0)})")
    lines.append("Discussion history:")
    for i, s in enumerate(summaries, start=1):
        lines.append(f"[summary {i}] {s}")
    lines.append(
        "Revise only changeable areas of this community, keeping every "
        "region-wide count at or above its minimum. Reply with a JSON object "
        '{"edits": [{"area_id": int, "use": str}]}; an empty list means no '
        "change.")
    lines.append(rules.fence({"community_id": community_id}))
    return [
        system("[role:plan_revision] You are the urban planner revising one "
               "community's land-use assignment after a resident discussion. "
               "Reply in strict JSON."),
        user("\n".join(lines)),
    ]


# ---------------------------------------------------------------------------
# Reply parsing


_raw_decode = json.JSONDecoder().raw_decode


def _all_json_objects(text: str) -> list[dict]:
    """Every JSON object in `text` that parses, left to right; one nested
    too deeply to decode is skipped like one that does not parse."""
    out = []
    idx = text.find("{")
    while idx >= 0:
        try:
            doc, end = _raw_decode(text, idx)
        except (json.JSONDecodeError, RecursionError):
            idx = text.find("{", idx + 1)
        else:
            out.append(doc)
            idx = text.find("{", end)
    return out


def extract_first_json(text: str) -> dict:
    """First parseable JSON object in the text (fenced or bare)."""
    docs = _all_json_objects(text)
    if not docs:
        raise ParseError("no JSON object found in reply")
    return docs[0]


def _area_id(value) -> int:
    """An area id from a reply: an int, an integral finite float such as
    3.0, or a string int() reads. Anything else is a ParseError."""
    if (isinstance(value, float) and value.is_integer()
            or isinstance(value, (int, str)) and not isinstance(value, bool)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"non-integer area id {value!r} in reply")


@dataclass(frozen=True)
class RepairNeeded:
    """Structural gaps in a plan reply that one repair prompt may fix."""
    missing: tuple[int, ...]
    unexpected: tuple[int, ...]
    deficits: dict[LandUse, int]

    def describe(self) -> str:
        parts = []
        if self.missing:
            parts.append(f"these vacant areas are unassigned: {list(self.missing)}")
        if self.unexpected:
            parts.append("these areas are not vacant and cannot be assigned: "
                         f"{list(self.unexpected)}")
        if self.deficits:
            parts.append("these minimum counts are not met: " + ", ".join(
                f"{u.value} short by {d}"
                for u, d in sorted(self.deficits.items(), key=lambda kv: kv[0].value)))
        return "; ".join(parts)


def parse_plan_response(text: str, region: Region) -> Union[Plan, RepairNeeded]:
    doc = extract_first_json(text)
    raw = doc.get("assignments", doc)
    if not isinstance(raw, dict) or not raw:
        raise ParseError('reply JSON lacks an "assignments" object')
    assignment: dict[int, LandUse] = {}
    for key, value in raw.items():
        area_id = _area_id(key)
        try:
            use = LandUse.parse(value)
        except ValueError:
            raise ParseError(f"unknown land use {value!r} in plan reply") from None
        if use not in ASSIGNABLE_USES:
            raise ParseError(f"{use.value} cannot be assigned to a vacant area")
        assignment[area_id] = use
    plan = Plan(assignment)
    rep = validate_plan(region, plan)
    if rep.ok:
        return plan
    return RepairNeeded(missing=rep.missing_areas,
                        unexpected=rep.unexpected_areas,
                        deficits=rep.deficits)


@dataclass(frozen=True)
class PlanEdit:
    edits: tuple[tuple[int, LandUse], ...]
    rationale: str = ""


def parse_plan_edits(text: str, region: Region, community_id: int) -> PlanEdit:
    doc = extract_first_json(text)
    raw = doc.get("edits")
    if not isinstance(raw, list):
        raise ParseError('reply JSON lacks an "edits" list')
    edits: list[tuple[int, LandUse]] = []
    for entry in raw:
        try:
            area_id = _area_id(entry["area_id"])
            use = LandUse.parse(entry["use"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed edit entry {entry!r}: {exc}") from None
        if use not in ASSIGNABLE_USES:
            raise ParseError(f"edit assigns non-assignable use {use.value}")
        area = region.areas_by_id.get(area_id)
        if area is None:
            raise ParseError(f"edit names unknown area {area_id}")
        if area.community_id != community_id:
            raise ParseError(
                f"edit touches area {area_id} outside community {community_id}")
        if not area.is_vacant:
            raise ParseError(f"edit touches fixed area {area_id}")
        edits.append((area_id, use))
    rationale = text.split("```")[0].strip()
    return PlanEdit(edits=tuple(edits), rationale=rationale)


def parse_opinion_response(text: str) -> list[dict]:
    """Best-effort extraction of structured requests from an opinion.

    Opinions are free text first; a malformed or absent JSON tail just
    yields an unstructured opinion rather than an error.
    """
    items = []
    for doc in _all_json_objects(text):
        raw = doc.get("requests")
        if not isinstance(raw, list):
            continue
        for entry in raw:
            try:
                use = LandUse.parse(entry["use"])
                if use not in ASSIGNABLE_USES:
                    continue
                items.append({"area_id": _area_id(entry["area_id"]),
                              "use": use,
                              "reason": str(entry.get("reason", ""))})
            except (KeyError, TypeError, ValueError, ParseError):
                continue
    return items


def summarize(opinions: Sequence[str], backend: Backend) -> str:
    if not opinions:
        raise ValueError("summarize needs at least one opinion")
    return backend.complete(render_summary_prompt(opinions))


def ask_with_repair(backend: Backend, messages: Sequence[ChatMessage],
                    check: Callable[[str], object],
                    repair_request: Callable[[str], str]) -> list:
    """Ask `backend`, and once more with one repair prompt if the reply is
    unusable.

    `check(reply)` returns the usable result, or a str naming the rule the
    reply breaks, and raises ParseError if the reply does not parse. After
    an unusable reply the backend gets `messages`, that reply and
    `repair_request(problem)`. Returns the outcome of each reply checked,
    in order: the result, the str, or the ParseError.
    """
    def outcome(msgs: Sequence[ChatMessage]) -> tuple[str, object]:
        reply = backend.complete(msgs)
        try:
            return reply, check(reply)
        except ParseError as exc:
            return reply, exc

    reply, first = outcome(messages)
    if not isinstance(first, (str, ParseError)):
        return [first]
    repair = list(messages) + [assistant(reply), user(repair_request(str(first)))]
    return [first, outcome(repair)[1]]


def request_initial_plan(region: Region, backend: Backend) -> Plan:
    """Prompt the backend for a full plan, with one repair attempt."""
    def check(reply: str) -> Union[Plan, str]:
        result = parse_plan_response(reply, region)
        return result if isinstance(result, Plan) else result.describe()

    last = ask_with_repair(
        backend, render_initial_plan_prompt(region), check,
        lambda problem: (
            f"Your reply was not usable: {problem}. Answer again with one "
            'strict JSON object {"assignments": {"<area_id>": "<land_use>"}} '
            "assigning every vacant area id exactly once and meeting every "
            "minimum count."))[-1]
    if isinstance(last, Plan):
        return last
    if isinstance(last, ParseError):
        raise RepairFailed(f"plan reply unusable after repair: {last}") from last
    raise RepairFailed(f"plan reply still invalid after repair: {last}")
