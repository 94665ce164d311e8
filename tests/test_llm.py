import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from participlan import rules
from participlan.errors import (
    BadReply,
    BackendError,
    ParseError,
    RateLimited,
    RepairFailed,
    TransportError,
)
from participlan.llm import (
    BackendConfig,
    ChatMessage,
    RemoteBackend,
    RepairNeeded,
    RuleBackend,
    ScriptedBackend,
    assistant,
    extract_first_json,
    load_transcript_file,
    make_backend,
    parse_opinion_response,
    parse_plan_edits,
    parse_plan_response,
    render_initial_plan_prompt,
    render_opinion_prompt,
    render_revision_prompt,
    request_digest,
    request_initial_plan,
    save_transcript_file,
    user,
)
from participlan.region import LandUse, Plan, validate_plan


def test_chat_message_validation():
    msg = ChatMessage(role="user", content="hi")
    assert msg.to_dict() == {"role": "user", "content": "hi"}
    with pytest.raises(ValueError):
        ChatMessage(role="wizard", content="hi")
    with pytest.raises(ValueError):
        ChatMessage(role="user", content="")


@pytest.mark.parametrize("field, value", [
    ("temperature", float("nan")),
    ("temperature", -0.1),
    ("timeout_s", float("nan")),
    ("timeout_s", float("inf")),
    ("timeout_s", 0.0),
])
def test_backend_config_rejects_bad_numbers(field, value):
    config = BackendConfig(kind="remote", endpoint="http://localhost:1/v1",
                           model="m", **{field: value})
    with pytest.raises(ValueError, match=field):
        config.validate()


def test_request_digest_stable_and_sensitive():
    msgs = [user("hello")]
    a = request_digest("m", 0.0, msgs)
    b = request_digest("m", 0.0, [user("hello")])
    c = request_digest("m", 0.5, msgs)
    assert a == b
    assert a != c
    assert re.fullmatch(r"[0-9a-f]{64}", a)


def test_extract_first_json():
    text = 'reasoning text {"a": 1, "b": [2]} trailing {"c": 3}'
    assert extract_first_json(text) == {"a": 1, "b": [2]}
    with pytest.raises(ParseError):
        extract_first_json("no json here")


class TestParsePlan:
    def test_accepts_bare_and_wrapped(self, grid16):
        assignment = {str(aid): "park" for aid in grid16.vacant_ids}
        # quotas all 1 are unmet except park, so this is a RepairNeeded
        got = parse_plan_response(json.dumps({"assignments": assignment}),
                                  grid16)
        assert isinstance(got, RepairNeeded)
        assert got.deficits

    def test_valid_plan_parses(self, grid16, hand_plan):
        doc = {str(a): u.value for a, u in hand_plan.assignment.items()}
        got = parse_plan_response(json.dumps(doc), grid16)
        assert isinstance(got, Plan)
        assert got.assignment == hand_plan.assignment

    def test_unknown_use_is_parse_error(self, grid16):
        with pytest.raises(ParseError, match="castle"):
            parse_plan_response('{"2": "castle"}', grid16)


class TestParseEdits:
    def test_basic(self, grid16):
        text = ('Widening coverage.\n```json\n'
                '{"edits": [{"area_id": 2, "use": "park"}]}\n```')
        edits = parse_plan_edits(text, grid16, community_id=1)
        assert edits.edits == ((2, LandUse.PARK),)
        assert "Widening coverage." in edits.rationale

    def test_rejects_fixed_area(self, grid16):
        with pytest.raises(ParseError, match="1"):
            parse_plan_edits('{"edits": [{"area_id": 1, "use": "park"}]}',
                             grid16, community_id=1)

    def test_rejects_unknown_area(self, grid16):
        with pytest.raises(ParseError, match="77"):
            parse_plan_edits('{"edits": [{"area_id": 77, "use": "park"}]}',
                             grid16, community_id=1)

    def test_rejects_other_community(self, hlg):
        other = next(a for a in hlg.areas
                     if a.community_id != 1 and a.is_vacant)
        with pytest.raises(ParseError):
            parse_plan_edits(
                json.dumps({"edits": [{"area_id": other.id, "use": "park"}]}),
                hlg, community_id=1)

    def test_edits_must_be_a_list(self, grid16):
        with pytest.raises(ParseError, match="edits"):
            parse_plan_edits('{"edits": 5}', grid16, community_id=1)

    # 2.5 used to be truncated to area 2, a vacant area of community 1
    @pytest.mark.parametrize("area_id", ["1e400", "2.5", "true", '"two"'])
    def test_rejects_non_integral_area_id(self, grid16, area_id):
        text = '{"edits": [{"area_id": %s, "use": "park"}]}' % area_id
        with pytest.raises(ParseError):
            parse_plan_edits(text, grid16, community_id=1)

    def test_integral_float_area_id(self, grid16):
        edits = parse_plan_edits('{"edits": [{"area_id": 2.0, "use": "park"}]}',
                                 grid16, community_id=1)
        assert edits.edits == ((2, LandUse.PARK),)


class TestParseOpinion:
    def test_skips_non_integral_area_ids(self):
        text = ('{"requests": [{"area_id": 1e400, "use": "park"}, '
                '{"area_id": 1.5, "use": "park"}, '
                '{"area_id": 3.0, "use": "school", "reason": "far"}]}')
        assert parse_opinion_response(text) == [
            {"area_id": 3, "use": LandUse.SCHOOL, "reason": "far"}]


# Arbitrary JSON, biased toward the keys and values the reply parsers read
# so that the interesting branches are reached, not only the no-JSON one.
_KEYS = st.sampled_from(["needs", "edits", "requests", "assignments",
                         "area_id", "use", "reason"]) | st.text(max_size=4)
_LEAVES = (st.none() | st.booleans() | st.integers(-3, 20)
           | st.integers() | st.floats()
           | st.sampled_from(["park", "school", "residential", "castle", "2"])
           | st.text(max_size=8))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(_KEYS, inner, max_size=5)),
    max_leaves=25)
_REPLIES = (st.builds(lambda prose, doc: prose + "\n```json\n"
                      + json.dumps(doc) + "\n```",
                      st.text(max_size=20),
                      st.dictionaries(_KEYS, _JSON, min_size=1, max_size=4))
            | st.builds(json.dumps, _JSON)
            | st.text(max_size=40))


@given(text=_REPLIES)
@settings(max_examples=200, deadline=None)
def test_reply_parsers_raise_only_parse_errors(grid16, text):
    for parse in (lambda t: parse_plan_response(t, grid16),
                  lambda t: parse_plan_edits(t, grid16, community_id=1)):
        try:
            parse(text)
        except ParseError:
            pass
    for item in parse_opinion_response(text):
        assert type(item["area_id"]) is int
        assert isinstance(item["use"], LandUse)


class TestRuleBackend:
    def test_unknown_role_tag(self, rule_backend):
        with pytest.raises(BackendError):
            rule_backend.complete([
                ChatMessage("system", "[role:time_travel] hi"),
                user("payload\n```json\n{}\n```"),
            ])

    def test_initial_plan_is_valid(self, grid16, rule_backend):
        plan = request_initial_plan(grid16, rule_backend)
        assert validate_plan(grid16, plan).ok

    def test_initial_plan_is_deterministic(self, grid16, rule_backend):
        a = request_initial_plan(grid16, rule_backend)
        b = request_initial_plan(grid16, make_backend(BackendConfig()))
        assert a.assignment == b.assignment

    def test_kind_takes_the_cli_name(self):
        assert isinstance(make_backend(BackendConfig(kind="rule")), RuleBackend)
        with pytest.raises(ValueError, match="rule-based"):
            make_backend(BackendConfig(kind="rule-based"))


class _RecordingBackend:
    """Returns `replies` in order and keeps the messages of each request."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.seen = []

    def complete(self, messages):
        self.seen.append(list(messages))
        return self.replies.pop(0)


class TestInitialPlanRepair:
    def _reply_without(self, region, area_id):
        plan = request_initial_plan(region, RuleBackend())
        doc = {"assignments": {str(a): u.value
                               for a, u in sorted(plan.assignment.items())
                               if a != area_id}}
        return "Here you go.\n```json\n" + json.dumps(doc) + "\n```"

    def test_one_repair_prompt_then_the_second_plan(self, grid16):
        dropped = grid16.vacant_ids[-1]
        good = request_initial_plan(grid16, RuleBackend())
        backend = _RecordingBackend([
            self._reply_without(grid16, dropped),
            RuleBackend().complete(render_initial_plan_prompt(grid16)),
        ])
        plan = request_initial_plan(grid16, backend)
        assert plan.assignment == good.assignment
        first, second = backend.seen
        assert first == render_initial_plan_prompt(grid16)
        assert second[:len(first)] == first
        assert second[len(first)] == assistant(
            self._reply_without(grid16, dropped))
        repair = second[len(first) + 1]
        assert len(second) == len(first) + 2 and repair.role == "user"
        assert repair.content.startswith(
            "Your reply was not usable: these vacant areas are unassigned: "
            f"[{dropped}]")
        assert repair.content.endswith(
            '. Answer again with one strict JSON object {"assignments": '
            '{"<area_id>": "<land_use>"}} assigning every vacant area id '
            "exactly once and meeting every minimum count.")

    def test_two_bad_replies_raise(self, grid16):
        dropped = grid16.vacant_ids[0]
        backend = _RecordingBackend(["no plan here",
                                     self._reply_without(grid16, dropped)])
        with pytest.raises(RepairFailed, match="still invalid after repair"):
            request_initial_plan(grid16, backend)
        assert backend.seen[1][-1].content.startswith(
            "Your reply was not usable: no JSON object found in reply. ")
        backend = _RecordingBackend(["no plan here", "still none"])
        with pytest.raises(RepairFailed, match="unusable after repair"):
            request_initial_plan(grid16, backend)


class TestPrompts:
    def test_initial_plan_prompt_lists_each_area_once(self, hlg):
        messages = render_initial_plan_prompt(hlg)
        text = "\n".join(m.content for m in messages)
        for area in hlg.areas:
            assert len(re.findall(rf"\bArea {area.id}\b", text)) == 1
        for use, minimum in hlg.requirements.items():
            assert f"{use.value}: at least {minimum}" in text

    def test_opinion_prompt_roleplay_toggle(self):
        entries = [{"area_id": 3, "land_use": "park", "distance_m": 120.0,
                    "direction": "north", "changeable": True}]
        with_role = render_opinion_prompt(
            "I am a retired teacher.", (LandUse.PARK, LandUse.CLINIC,
                                        LandUse.HOSPITAL),
            entries, summaries=("earlier summary",), roleplay=True)
        assert "retired teacher" in with_role[0].content
        without = render_opinion_prompt(
            "I am a retired teacher.", (LandUse.PARK, LandUse.CLINIC,
                                        LandUse.HOSPITAL),
            entries, summaries=(), roleplay=False)
        assert "retired teacher" not in without[0].content
        assert "resident" in without[0].content

    def test_revision_prompt_names_community(self, hlg, hand_plan):
        plan = Plan({aid: LandUse.PARK for aid in hlg.vacant_ids})
        messages = render_revision_prompt(hlg, 2, plan, ("round summary",))
        text = "\n".join(m.content for m in messages)
        assert "community 2" in text.lower()
        assert "round summary" in text


_REVISION_HEAD = "You are revising community 1 (Central) of region grid16."
_REVISION_TAIL = (
    "Discussion history:\n"
    "[summary 1] s1\n"
    "[summary 2] s2\n"
    "Revise only changeable areas of this community, keeping every "
    "region-wide count at or above its minimum. Reply with a JSON object "
    '{"edits": [{"area_id": int, "use": str}]}; an empty list means no '
    "change.\n"
    "```json\n"
    '{"community_id": 1}\n'
    "```")


def _revision_text(uses, counts):
    areas = [f"- area {aid}: {use}" for aid, use in enumerate(uses, start=1)]
    needed = [f"- {use}: {n} (1)" for use, n in counts]
    return "\n".join([_REVISION_HEAD, "Current assignment in this community:",
                      *areas,
                      "Region-wide counts (minimum required in parentheses):",
                      *needed, _REVISION_TAIL])


_FIXED = "residential (fixed)"
_FREE = "unassigned (changeable)"


def _changeable(use):
    return f"{use} (changeable)"


@pytest.mark.parametrize("case", ["valid", "broken", "empty"])
def test_revision_prompt_text_is_pinned(grid16, hand_plan, case):
    """The planner's revision prompt, area lines and quota counts, for a
    valid plan, one with a dropped area plus a fixed and a foreign id
    (neither counts), and an empty one."""
    uses = ["school", "hospital", "clinic", "business", "office",
            "recreation", "park", "open_space"]
    if case == "valid":
        plan = hand_plan
        areas = [_FIXED, *map(_changeable, ["school", "hospital", "clinic",
                                            "business", "office"]),
                 _FIXED, *map(_changeable, ["recreation", "park", "open_space",
                                            "school", "business", "park"]),
                 _FIXED, _changeable("office"), _FIXED]
        counts = [2, 1, 1, 2, 2, 1, 2, 1]
    elif case == "broken":
        assignment = dict(hand_plan.assignment)
        del assignment[3]
        assignment[1] = LandUse.SCHOOL
        assignment[99] = LandUse.PARK
        plan = Plan(assignment)
        areas = [_FIXED, _changeable("school"), _FREE,
                 *map(_changeable, ["clinic", "business", "office"]),
                 _FIXED, *map(_changeable, ["recreation", "park", "open_space",
                                            "school", "business", "park"]),
                 _FIXED, _changeable("office"), _FIXED]
        counts = [2, 0, 1, 2, 2, 1, 2, 1]
    else:
        plan = Plan({})
        areas = [_FIXED, *[_FREE] * 5, _FIXED, *[_FREE] * 6, _FIXED, _FREE,
                 _FIXED]
        counts = [0] * 8
    messages = render_revision_prompt(grid16, 1, plan, ("s1", "s2"))
    assert messages[0].content.startswith("[role:plan_revision]")
    assert messages[1].content == _revision_text(areas, zip(uses, counts))


class _FakeResponse:
    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self._body = body or {}
        self.headers = headers or {}
        self.text = json.dumps(self._body)

    def json(self):
        return self._body


def _chat_body(content):
    return {"choices": [{"message": {"role": "assistant",
                                     "content": content}}]}


def _remote(transport, record_to=None, max_retries=3, monkeypatch=None):
    config = BackendConfig(kind="remote", endpoint="https://x.test/v1/chat",
                           model="test-model", max_retries=max_retries,
                           api_key_env="PARTICIPLAN_TEST_KEY")
    return RemoteBackend(config, transport=transport, record_to=record_to,
                         sleeper=lambda _t: None)


@pytest.fixture(autouse=True)
def _fake_key(monkeypatch):
    monkeypatch.setenv("PARTICIPLAN_TEST_KEY", "sk-test")


class TestRemoteBackend:
    def test_happy_path_and_recording(self):
        seen = {}

        def transport(url, headers=None, json=None, timeout=None):
            seen["url"] = url
            seen["auth"] = headers["Authorization"]
            seen["body"] = json
            return _FakeResponse(200, _chat_body("hello back"))

        tape = []
        backend = _remote(transport, record_to=tape)
        reply = backend.complete([user("hi")])
        assert reply == "hello back"
        assert seen["auth"] == "Bearer sk-test"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0.0
        assert len(tape) == 1
        assert tape[0]["reply_text"] == "hello back"

    def test_retries_on_transport_error(self):
        import requests
        calls = {"n": 0}

        def transport(url, **kwargs):
            calls["n"] += 1
            if calls["n"] < 3:
                raise requests.ConnectionError("nope")
            return _FakeResponse(200, _chat_body("ok"))

        backend = _remote(transport)
        assert backend.complete([user("hi")]) == "ok"
        assert calls["n"] == 3
        assert backend.telemetry.retries == 2

    def test_rate_limit_gives_up(self):
        def transport(url, **kwargs):
            return _FakeResponse(429, headers={"Retry-After": "0"})

        backend = _remote(transport, max_retries=2)
        with pytest.raises(RateLimited):
            backend.complete([user("hi")])
        assert backend.telemetry.rate_limited >= 1

    def test_server_error_exhausts(self):
        def transport(url, **kwargs):
            return _FakeResponse(500, {"error": "boom"})

        backend = _remote(transport, max_retries=1)
        with pytest.raises(TransportError):
            backend.complete([user("hi")])

    def test_server_error_then_success_retries_once(self):
        replies = [_FakeResponse(503), _FakeResponse(200, _chat_body("ok"))]
        sleeps = []
        config = BackendConfig(kind="remote", endpoint="https://x.test/v1/chat",
                               model="test-model",
                               api_key_env="PARTICIPLAN_TEST_KEY")
        backend = RemoteBackend(config, transport=lambda url, **kw: replies.pop(0),
                                sleeper=sleeps.append)
        assert backend.complete([user("hi")]) == "ok"
        assert backend.telemetry.retries == 1
        assert backend.telemetry.requests == 2
        assert sleeps == [0.5]

    def test_network_failure_names_every_attempt(self):
        import requests

        def transport(url, **kwargs):
            raise requests.ConnectionError("nope")

        backend = _remote(transport, max_retries=1)
        with pytest.raises(TransportError,
                           match="network failure after 2 attempts: nope") as info:
            backend.complete([user("hi")])
        assert isinstance(info.value.__cause__, requests.ConnectionError)
        assert backend.telemetry.requests == 2
        assert backend.telemetry.retries == 1

    def test_malformed_reply(self):
        def transport(url, **kwargs):
            return _FakeResponse(200, {"choices": []})

        backend = _remote(transport)
        with pytest.raises(BadReply):
            backend.complete([user("hi")])

    @pytest.mark.parametrize("header, wait", [
        ("2", 2.0),       # honoured as sent
        ("1e9", 30.0),    # capped at timeout_s
        ("nan", 0.5),     # the exponential fallback for the first retry
        ("inf", 0.5),
        ("-5", 0.5),
        ("soon", 0.5),
    ])
    def test_retry_after_is_bounded(self, header, wait):
        replies = [_FakeResponse(429, headers={"Retry-After": header}),
                   _FakeResponse(200, _chat_body("ok"))]
        sleeps = []
        config = BackendConfig(kind="remote", endpoint="https://x.test/v1/chat",
                               model="test-model", timeout_s=30.0,
                               api_key_env="PARTICIPLAN_TEST_KEY")
        backend = RemoteBackend(config, transport=lambda url, **kw: replies.pop(0),
                                sleeper=sleeps.append)
        assert backend.complete([user("hi")]) == "ok"
        assert sleeps == [wait]

    def test_missing_key_fails_fast(self, monkeypatch):
        monkeypatch.delenv("PARTICIPLAN_TEST_KEY", raising=False)
        config = BackendConfig(kind="remote", endpoint="https://x.test/chat",
                               model="m", api_key_env="PARTICIPLAN_TEST_KEY")
        with pytest.raises(BackendError, match="PARTICIPLAN_TEST_KEY"):
            RemoteBackend(config)


class TestScriptedBackend:
    def test_replays_in_order_with_verification(self, tmp_path):
        def transport(url, **kwargs):
            n = len(kwargs["json"]["messages"])
            return _FakeResponse(200, _chat_body(f"reply-{n}"))

        tape = []
        live = _remote(transport, record_to=tape)
        assert live.complete([user("one")]) == "reply-1"
        assert live.complete([user("one"), user("two")]) == "reply-2"

        path = tmp_path / "tape.json"
        save_transcript_file(tape, path)
        config = BackendConfig(kind="scripted", model="test-model",
                               transcript_path=str(path))
        replay = make_backend(config)
        assert replay.complete([user("one")]) == "reply-1"
        assert replay.complete([user("one"), user("two")]) == "reply-2"
        with pytest.raises(BackendError, match="exhaust"):
            replay.complete([user("three")])

    def test_digest_mismatch_detected(self, tmp_path):
        tape = [{"request_digest": "0" * 64, "reply_text": "hi"}]
        path = tmp_path / "tape.json"
        save_transcript_file(tape, path)
        replay = ScriptedBackend(
            BackendConfig(kind="scripted", model="test-model",
                          transcript_path=str(path)))
        with pytest.raises(BackendError, match="entry 0"):
            replay.complete([user("something else")])

    def test_null_digest_skips_verification(self, tmp_path):
        tape = [{"request_digest": None, "reply_text": "canned"}]
        path = tmp_path / "tape.json"
        save_transcript_file(tape, path)
        replay = ScriptedBackend(
            BackendConfig(kind="scripted", transcript_path=str(path)))
        assert replay.complete([user("anything")]) == "canned"


#: A JSON array nested deeper than the decoder's recursion limit.
_NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", [
    "not json",
    "[5]",
    '[{"request_digest": 7, "reply_text": "hi"}]',
    '[{"request_digest": null, "reply_text": 5}]',
    '[{"request_digest": null, "reply_text": ""}]',
    _NESTED,
], ids=["invalid-json", "non-object-entry", "non-string-digest",
        "non-string-reply", "empty-reply", "nested-too-deeply"])
def test_bad_transcript_is_parse_error(tmp_path, text):
    path = tmp_path / "tape.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        load_transcript_file(path)


@pytest.mark.parametrize("parse", [
    lambda region: parse_plan_response(
        '{"assignments": ' + _NESTED + "}", region),
    lambda region: parse_plan_edits(
        '{"edits": ' + _NESTED + "}", region, community_id=1),
], ids=["plan", "edits"])
def test_plan_reply_nested_too_deeply_has_no_object(grid16, parse):
    with pytest.raises(ParseError, match="no JSON object"):
        parse(grid16)


_DEEP_OPINION = 'Please.\n```json\n{"requests": ' + _NESTED + "}\n```"


def test_opinion_nested_too_deeply_has_no_requests():
    assert parse_opinion_response(_DEEP_OPINION) == []


def test_summary_of_an_opinion_nested_too_deeply_counts_no_requests():
    assert rules.summary_reply({"opinions": [_DEEP_OPINION]}) \
        == rules.summary_reply({"opinions": ["Please."]})


def test_a_completion_body_nested_too_deeply_is_a_bad_reply():
    class Deep(_FakeResponse):
        def json(self):
            return json.loads(_NESTED)

    backend = _remote(lambda url, **kwargs: Deep(200))
    with pytest.raises(BadReply):
        backend.complete([user("hi")])
