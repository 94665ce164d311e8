import participlan


def test_every_export_resolves():
    names = participlan.__all__
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(participlan, n)]
    assert missing == []
    namespace = {}
    exec("from participlan import *", namespace)
    assert set(names) <= set(namespace)
