"""Incident pins of the verdict paths the executor digests do not cover.

The golden digests of ``tests/test_executor_golden.py`` hash what the
executor returns, and CI's ``counts:`` lines cover the ground-truth and
differential oracles.  The TQS!GT plan-vs-plan vote and the NoREC, TLP and
PQS oracles decide their incidents from those results; these sha256 pins
hash every incident each of them files on a seeded faulty dialect, so a
change to how any of them compares results fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import CampaignSpec, run_campaign

CAMPAIGNS = {
    # Two of this campaign's queries split their plans into equally large
    # result classes, so the pin also covers which class wins a tie.
    "tqs-no-gt": CampaignSpec(kind="tqs", dialect="SimXDB", dataset_rows=40,
                              hours=4, queries_per_hour=10, seed=2,
                              use_ground_truth=False),
    "norec": CampaignSpec(kind="baseline", baseline="NoRec",
                          dialect="SimMySQL", dataset="tpch", dataset_rows=100,
                          hours=4, queries_per_hour=40, seed=1),
    "tlp": CampaignSpec(kind="baseline", baseline="TLP", dialect="SimXDB",
                        dataset="tpch", dataset_rows=100, hours=4,
                        queries_per_hour=40, seed=0),
    "pqs": CampaignSpec(kind="baseline", baseline="PQS", dialect="SimXDB",
                        dataset_rows=60, hours=4, queries_per_hour=30,
                        seed=14),
}

#: (incident count, sha256 over every incident's verdict fields) per campaign.
PINS = {
    "tqs-no-gt": (
        36, "722dac08c6549d149d82f0dada51c6771da16be1494cf5f9c6e579be24a31cee"),
    "norec": (
        16, "19e5c7701bdab9c911823dd7150d184fa60fd181ce9e5fec85b4b923f628dcc7"),
    "tlp": (
        11, "87ceeeef391288b1fa8b43432663b92290356cc389357e067d30323f64ec4773"),
    "pqs": (
        11, "6a770ddd699d860bafd0aea6630d0de7e55c255cd8b548f497ea7571c938af3e"),
}


def incident_digest(spec: CampaignSpec) -> tuple:
    """(incidents, sha256) over each incident's verdict-bearing fields."""
    digest = hashlib.sha256()
    incidents = run_campaign(spec).bug_log.incidents
    for incident in incidents:
        digest.update(repr((
            incident.hint_name,
            incident.detection_mode,
            incident.fired_bug_ids,
            incident.expected_rows,
            incident.observed_rows,
        )).encode())
    return len(incidents), digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_incident_digest_matches_the_pin(name):
    count, digest = incident_digest(CAMPAIGNS[name])
    assert count > 0, "the pinned campaign must exercise its oracle"
    assert (count, digest) == PINS[name]
