import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import participlan
from participlan import BackendConfig, DiscussionConfig, PlannerConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    names = participlan.__all__
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(participlan, n)]
    assert missing == []
    namespace = {}
    exec("from participlan import *", namespace)
    assert set(names) <= set(namespace)


@pytest.mark.parametrize("cls, field, value", [
    (DiscussionConfig, "rounds", 0),
    (DiscussionConfig, "speakers_per_round", 0),
    (DiscussionConfig, "exchange_fraction", 1.5),
    (DiscussionConfig, "invite_buffer_m", np.inf),
    (PlannerConfig, "max_iters", -1),
    (PlannerConfig, "restarts", 0),
    (BackendConfig, "kind", "rule-based"),
    (BackendConfig, "temperature", -0.1),
    (BackendConfig, "timeout_s", np.nan),
    (BackendConfig, "max_retries", -1),
    # each of these used to build and then fail in its first use, with a
    # numpy ValueError or a TypeError
    (DiscussionConfig, "seed", -1),
    (DiscussionConfig, "rounds", 1.5),
    (PlannerConfig, "seed", -1),
    (PlannerConfig, "restarts", 2.5),
    # sent to the endpoint as it was
    (BackendConfig, "max_tokens", 0),
])
def test_an_invalid_setting_cannot_be_built(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(cls(), **{field: value})


def test_a_numpy_integer_is_a_count():
    count = np.int64(3)
    assert DiscussionConfig(rounds=count, seed=count).rounds == 3
    assert PlannerConfig(max_iters=count, restarts=count, seed=count).restarts == 3
    assert BackendConfig(max_tokens=count, max_retries=count).max_tokens == 3


def test_readme_library_example_runs(capsys):
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert "'satisfaction'" in capsys.readouterr().out
