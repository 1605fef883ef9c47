"""Tests for campaigns, the ablation driver and reporting."""

from dataclasses import replace

import pytest

from repro.analysis import (
    compare_final,
    growth_is_monotonic,
    linearity_score,
    render_ablation,
    render_bug_type_details,
    render_dbms_overview,
    render_detected_bugs,
    render_series,
    render_table,
    saturation_hour,
)
from repro.core import CampaignSpec, run_ablation, run_campaign
from repro.engine import SIM_MYSQL
from repro.errors import CampaignError

FAST = CampaignSpec(dataset="shopping", dataset_rows=90, hours=3,
                    queries_per_hour=4, seed=71)


@pytest.fixture(scope="module")
def tqs_campaign():
    return run_campaign(FAST)


class TestCampaign:
    def test_samples_cover_every_hour(self, tqs_campaign):
        assert [s.hour for s in tqs_campaign.samples] == [1, 2, 3]
        assert tqs_campaign.tool == "TQS"
        assert tqs_campaign.dbms == "SimMySQL"

    def test_series_are_cumulative_and_monotonic(self, tqs_campaign):
        for metric in ("queries_generated", "isomorphic_sets", "bug_count",
                       "bug_type_count"):
            assert growth_is_monotonic(tqs_campaign.series(metric)), metric

    def test_final_sample_and_bug_log(self, tqs_campaign):
        final = tqs_campaign.final
        assert final.queries_generated <= FAST.hours * FAST.queries_per_hour
        assert tqs_campaign.bug_log is not None
        assert tqs_campaign.bug_log.bug_count == final.bug_count

    def test_empty_campaign_result_raises(self):
        from repro.core import CampaignResult

        with pytest.raises(CampaignError):
            CampaignResult(tool="TQS", dbms="X", dataset="d").final

    def test_baseline_campaign_runs(self):
        result = run_campaign(replace(FAST, kind="baseline", baseline="NoRec"))
        assert result.tool == "NoRec"
        assert len(result.samples) == FAST.hours
        assert result.final.queries_generated > 0

    def test_ablation_variants_configured_correctly(self):
        spec = CampaignSpec(dialect="SimTiDB", dataset="shopping",
                            dataset_rows=90, hours=2, queries_per_hour=3,
                            seed=73)
        results = run_ablation(spec)
        assert set(results) == {"TQS", "TQS!Noise", "TQS!GT", "TQS!KQE"}
        assert results["TQS!Noise"].tool == "TQS!Noise"
        # The TQS!GT variant must rely on differential testing exclusively.
        assert all(incident.detection_mode == "differential"
                   for incident in results["TQS!GT"].bug_log.incidents)
        assert all(incident.detection_mode == "ground_truth"
                   for incident in results["TQS"].bug_log.incidents)

    def test_workers_below_one_rejected(self):
        for workers in (0, -1):
            with pytest.raises(CampaignError, match="at least one worker"):
                run_campaign(replace(FAST, hours=1, queries_per_hour=1,
                                     workers=workers))

    def test_on_hour_hook_with_a_pool_rejected(self):
        with pytest.raises(CampaignError, match="on_hour"):
            run_campaign(replace(FAST, hours=1, queries_per_hour=1, workers=2),
                         on_hour=lambda record: None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError, match="unknown campaign kind"):
            run_campaign(replace(FAST, kind="fuzz"))
        with pytest.raises(CampaignError, match="baseline name"):
            run_campaign(replace(FAST, kind="baseline"))


class TestAnalysisHelpers:
    def test_compare_final(self, tqs_campaign):
        baseline = run_campaign(replace(FAST, kind="baseline", baseline="PQS"))
        comparisons = compare_final("isomorphic_sets", tqs_campaign,
                                    {"PQS": baseline})
        assert comparisons[0].metric == "isomorphic_sets"
        assert comparisons[0].ratio >= 0

    def test_series_shape_helpers(self):
        assert growth_is_monotonic([1, 2, 2, 5])
        assert not growth_is_monotonic([3, 2])
        assert saturation_hour([1, 4, 7, 7, 7]) == 3
        assert saturation_hour([]) is None
        assert linearity_score([1, 2, 3, 4]) == pytest.approx(1.0)
        assert linearity_score([5]) == 1.0

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, "xyz"], [22, "q"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a " in lines[1] and "bb" in lines[1]

    def test_render_dbms_overview_lists_all_dialects(self):
        text = render_dbms_overview()
        for name in ("SimMySQL", "SimMariaDB", "SimTiDB", "SimXDB"):
            assert name in text

    def test_render_detected_bugs_and_details(self, tqs_campaign):
        text = render_detected_bugs({"SimMySQL": tqs_campaign})
        assert "TOTAL" in text
        details = render_bug_type_details(tqs_campaign, SIM_MYSQL)
        assert "Semi-join" in details or "semi-join" in details.lower()

    def test_render_series_and_ablation(self, tqs_campaign):
        series_text = render_series("fig", [1, 2, 3],
                                    {"TQS": tqs_campaign.series("bug_count")})
        assert "hour" in series_text and "TQS" in series_text
        ablation_text = render_ablation({"SimMySQL": {"TQS": tqs_campaign}})
        assert "Table 5" in ablation_text
