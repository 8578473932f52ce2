"""Host fingerprints and the comparison of two result documents."""

from perfbench.compare import compare
from perfbench.host import _git_commit, fingerprint, fingerprint_warnings
from perfbench.tests.conftest import ROOT


def doc(host, value=1.0, sha="a"):
    return {
        "host": host,
        "workload": "w",
        "seed": 1,
        "trace": 0,
        "digest_sha256": sha,
        "metrics": {"wall_s": {"value": value, "unit": "s"}},
    }


def test_fingerprint_fields():
    host = fingerprint(ROOT)
    assert host["cpus"] >= 1
    assert set(host) == {"cpus", "cpu_model", "python", "numpy", "scipy", "git_commit"}


def test_git_commit_is_not_searched_above_the_root():
    assert _git_commit(ROOT / "perfbench") == "unknown"


def test_same_host_compares_without_warning():
    host = fingerprint(ROOT)
    assert fingerprint_warnings(host, dict(host)) == []
    lines = compare(doc(host, 2.0), doc(dict(host), 3.0))
    assert not any(line.startswith("WARNING") for line in lines)
    assert "digest: same" in lines
    assert any("x1.500" in line for line in lines)


def test_different_host_warns():
    host = fingerprint(ROOT)
    other = dict(host, cpus=host["cpus"] + 1)
    lines = compare(doc(host), doc(other, sha="b"))
    assert any(line.startswith("WARNING: host cpus differs") for line in lines)
    assert "digest: DIFFERENT" in lines
