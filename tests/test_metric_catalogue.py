"""docs/OBSERVABILITY.md is the one metric catalogue, and stays complete.

Every ``repro_*`` metric is registered under a string literal (no name
is built at run time), so a static scan of ``src/`` finds them all.  The
check is two-way: a metric registered without a catalogue row fails,
and so does a row documenting a metric nothing registers.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "docs" / "OBSERVABILITY.md"

_LITERAL = re.compile(r"""["'](repro_[a-z0-9_]+)["']""")
_DOCUMENTED = re.compile(r"`(repro_[a-z0-9_]+)")


def _registered() -> set:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        names.update(_LITERAL.findall(path.read_text(encoding="utf-8")))
    return names


def _catalogued() -> set:
    return set(_DOCUMENTED.findall(CATALOGUE.read_text(encoding="utf-8")))


def test_scan_finds_the_metrics():
    registered = _registered()
    # Spot-check one name per subsystem, so a broken scan cannot pass
    # the equality below by finding nothing on either side.
    for name in (
        "repro_lookups_total",
        "repro_update_latency_us",
        "repro_server_requests_total",
        "repro_journal_fsyncs_total",
        "repro_pool_batches_total",
        "repro_cluster_degraded",
        "repro_span_seconds",
    ):
        assert name in registered, name


def test_every_registered_metric_is_catalogued():
    missing = sorted(_registered() - _catalogued())
    assert not missing, f"add these to docs/OBSERVABILITY.md: {missing}"


def test_every_catalogued_metric_is_registered():
    stale = sorted(_catalogued() - _registered())
    assert not stale, f"documented but never registered: {stale}"
