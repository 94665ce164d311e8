"""The rule backend's payload read and LandUse.parse's exact lookup,
against the forms they replace: the fence regex that now lives in
oracles.py, and the normalising parse alone."""
import random

import numpy as np
import pytest

from oracles import FENCE_RE, fenced_payload
from participlan import rules
from participlan.llm import RuleBackend, system, user
from participlan.region import _USE_LOOKUP, LandUse

#: Text pieces that make fences open, close, nearly open and nearly close,
#: with the whitespace the regex skips after an opening fence (Unicode
#: whitespace included) and some that it does not.
_PIECES = ("```json", "```", "``", " ", "\n", "\t", "\xa0", "\x85",
           "\u2003", "{", "}", "x")


def test_fenced_blocks_are_the_regex_blocks():
    rng = random.Random(20261019)
    texts = ["".join(rng.choices(_PIECES, k=rng.randint(0, 14)))
             for _ in range(50_000)]
    for text in texts:
        assert rules.fenced_blocks(text) == FENCE_RE.findall(text), text


#: Fenced block contents: objects, JSON that is not an object, and text
#: that does not parse.
_BLOCKS = ('{"a": 1}', '{"b": [2, {"c": null}]}', "{}", "[1, 2]", '"s"',
           "7", "{oops", "", "}")


def _texts(rng):
    def text():
        parts = []
        for _ in range(rng.randint(0, 4)):
            parts.append(rng.choice(("prose ", "\n", "``` ", "```json")))
            if rng.random() < 0.7:
                parts += ["```json", rng.choice(" \n"), rng.choice(_BLOCKS),
                          rng.choice(" \n"), "```"]
        return "".join(parts)
    return [text() for _ in range(rng.randint(0, 3))]


def test_payload_is_the_last_block_that_parses():
    rng = random.Random(7)
    for _ in range(3_000):
        texts = _texts(rng)
        assert rules.last_fenced_doc(texts) == fenced_payload(texts), texts


@pytest.mark.parametrize("texts, payload", [
    # the last block does not parse: the one before it is the payload
    (['a ```json\n{"a": 1}\n``` b ```json\n{oops\n```'], {"a": 1}),
    # the last block parses to JSON that is not an object
    (['```json\n{"a": 1}\n```', "```json\n[1, 2]\n```"], [1, 2]),
    # the last message has no block
    (['```json\n{"a": 1}\n```', "no fence here"], {"a": 1}),
    ([], {}),
])
def test_payload_cases(texts, payload):
    assert rules.last_fenced_doc(texts) == fenced_payload(texts) == payload


def test_a_fence_in_the_system_message_is_not_read():
    opinions = {"opinions": ['Please.\n```json\n{"requests": [{"area_id": 3,'
                             ' "use": "park", "reason": "r"}]}\n```']}
    reply = RuleBackend().complete([
        system("[role:summarize] " + rules.fence(opinions)),
        user("no fence here")])
    assert fenced_payload(["no fence here"]) == {}
    assert reply == rules.summary_reply({})
    assert reply != rules.summary_reply(opinions)


def _normalising(value):
    """LandUse.parse without its exact lookup: what the package did for
    every value, and still does for one that is not an exact key."""
    key = " ".join(str(value).strip().lower().replace("-", " ")
                   .replace("_", " ").split())
    try:
        return _USE_LOOKUP[key]
    except KeyError:
        return ValueError


def _outcome(value):
    try:
        return LandUse.parse(value)
    except ValueError:
        return ValueError


def test_exact_lookup_agrees_with_the_normalising_parse():
    names = [u.value for u in LandUse] + list(_USE_LOOKUP) + ["factory", ""]
    spelled = {variant for name in names for variant in (
        name, name.upper(), name.title(), f" {name} ", f"{name}\n",
        name.replace(" ", "-"), name.replace(" ", "_"),
        name.replace("_", " "), name.replace("_", "-"),
        name.replace(" ", "  "))}
    for value in sorted(spelled):
        assert _outcome(value) is _normalising(value), value
    for value in (1, 1.5, None, True, b"park", ("park",), ["park"],
                  {"park": 1}, np.str_("park"), np.float64(2.0)):
        assert _outcome(value) is _normalising(value), value
    # a member is its own value; the normalising parse alone read its
    # str(), "LandUse.PARK"
    for use in LandUse:
        assert _outcome(use) is use is _normalising(use.value)


def test_a_block_nested_too_deeply_is_skipped():
    nested = "[" * 100_000 + "]" * 100_000
    text = '```json\n{"a": 1}\n```\n```json\n' + nested + "\n```"
    assert rules.last_fenced_doc([text]) == {"a": 1}
