"""The canonical runs of ``tests/digests.py`` give the committed digests, byte for byte.

The digests hold for the numpy version and SIMD targets recorded with them
in ``tests/digests.json``.  Anywhere else each test skips and says why: a
different libm path may move the last bit of a log or an exp, so a
mismatch there would say nothing about the code.
"""

import json

import pytest

import digests

_COMMITTED = json.loads(digests.DIGESTS_FILE.read_text())


def test_every_run_has_a_committed_digest():
    assert sorted(_COMMITTED["digests"]) == sorted(digests.RUNS)


@pytest.mark.parametrize("name", sorted(digests.RUNS))
def test_run_is_byte_identical(name):
    here = digests.key()
    if here != _COMMITTED["key"]:
        pytest.skip(f"digests hold for {_COMMITTED['key']}, this environment is {here}")
    assert digests.RUNS[name]() == _COMMITTED["digests"][name]


def test_another_environment_skips(monkeypatch):
    """Under another key a run is neither compared nor passed: it skips and says why."""
    monkeypatch.setattr(digests, "key", lambda: dict(_COMMITTED["key"], numpy="0.0"))
    with pytest.raises(pytest.skip.Exception, match="this environment is"):
        test_run_is_byte_identical("bump_64")
