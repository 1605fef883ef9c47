"""The campaign schema: each field declared once, every copy derived from it.

``CampaignConfig`` and ``CampaignSpec`` declare the campaign fields; the CLI
flags of both campaign CLIs, the wire codec, serve's campaign echo and the
kind checks are derived from those declarations.  These tests pin the derived
surfaces to their values before the derivation (CLI actions, wire keys, the
snapshot campaign fingerprint) and walk every declared field through every
copy, so a new field is covered by its declaration alone.
"""

import argparse
import json
from dataclasses import fields, replace
from typing import get_type_hints

import pytest

from repro.core import CampaignConfig, CampaignSpec, build_shard_specs, run_campaign
from repro.core import parallel
from repro.core.parallel import campaign_flags, campaign_shards, campaign_spec
from repro.distributed import cli as distributed_cli
from repro.distributed import server as server_module
from repro.distributed.server import IndexServer
from repro.distributed.wire import (
    decode_campaign_config,
    decode_shard_spec,
    encode_campaign_config,
    encode_shard_spec,
)
from repro.errors import CampaignError, ProtocolError

# ------------------------------------------------------------ pinned surface

_DIALECTS = ("SimMySQL", "SimMariaDB", "SimTiDB", "SimXDB")

#: dest -> (option strings, default, type, choices, action class), as both
#: campaign CLIs declared them by hand; ``workers`` defaults per parser.
CAMPAIGN_ACTIONS = {
    "backend": (("--backend",), "sqlite", None, None, "_StoreAction"),
    "baseline": (("--baseline",), "NoRec", None, None, "_StoreAction"),
    "budget_policy": (
        ("--budget-policy",), "even", None, ("adaptive", "even"), "_StoreAction"),
    "cte_probability": (("--cte-probability",), 0.0, "float", None, "_StoreAction"),
    "dataset": (("--dataset",), "shopping", None, None, "_StoreAction"),
    "dataset_rows": (("--dataset-rows",), 150, "int", None, "_StoreAction"),
    "dialect": (("--dialect",), "SimMySQL", None, _DIALECTS, "_StoreAction"),
    "hours": (("--hours",), 24, "int", None, "_StoreAction"),
    "kind": (
        ("--kind",), "tqs", None, ("tqs", "baseline", "differential"),
        "_StoreAction"),
    "no_prune": (("--no-prune",), False, None, None, "_StoreTrueAction"),
    "queries_per_hour": (("--queries-per-hour",), 12, "int", None, "_StoreAction"),
    "scalar_subquery_probability": (
        ("--scalar-subquery-probability",), 0.0, "float", None, "_StoreAction"),
    "seed": (("--seed",), 5, "int", None, "_StoreAction"),
    "setop_probability": (
        ("--setop-probability",), 0.0, "float", None, "_StoreAction"),
    "sync_interval": (("--sync-interval",), 1, "int", None, "_StoreAction"),
}

#: Every option string of each parser: the derivation adds no flag.
POOL_OPTIONS = {
    "--auth-key-file", "--backend", "--baseline",
    "--budget-policy", "--cte-probability", "--dataset", "--dataset-rows",
    "--dialect", "--help", "--hours", "--kind", "--live-stats", "--no-prune",
    "--queries-per-hour", "--scalar-subquery-probability",
    "--seed", "--setop-probability", "--sync-interval",
    "--worker-timeout", "--workers", "-h",
}
SERVE_OPTIONS = {
    "--auth-key-file", "--backend", "--baseline",
    "--budget-policy", "--cte-probability", "--dataset", "--dataset-rows",
    "--dialect", "--evict-dead-clients", "--help", "--host", "--hours", "--kind",
    "--live-stats", "--metrics-addr", "--no-prune", "--output", "--port",
    "--queries-per-hour", "--round-timeout",
    "--scalar-subquery-probability", "--seed", "--serve-timeout",
    "--setop-probability", "--snapshot-dir", "--sync-interval",
    "--telemetry-output", "--workers", "-h",
}

#: ``list(encode_campaign_config(CampaignConfig()))`` before the derivation.
WIRE_KEYS = [
    "dataset", "dataset_rows", "hours", "queries_per_hour", "seed", "use_noise",
    "use_ground_truth", "use_kqe", "max_hint_sets",
    "setop_probability", "scalar_subquery_probability", "cte_probability",
]

#: The keys of serve's campaign echo, which verify-local reads back.
ECHO_KEYS = {
    "kind", "workers", "dataset", "dataset_rows", "hours", "queries_per_hour",
    "seed", "sync_interval", "dialect", "baseline", "backend", "prune",
    "budget_policy", "setop_probability",
    "scalar_subquery_probability", "cte_probability",
}

#: The server's snapshot campaign fingerprint of FINGERPRINTED_CONFIG: the
#: earlier encoding with the retired ``batch_size`` and ``use_query_cache``
#: keys removed and the ``sync_rule`` key added, so a log written under
#: bulk-synchronous rounds starts fresh.
FINGERPRINT = "46e474fbfee75b4115c2e87c1376040c1d2a705ff6dff8c8576442786283e616"
FINGERPRINTED_CONFIG = CampaignConfig(
    dataset_rows=80, hours=3, queries_per_hour=8, seed=17,
    setop_probability=0.4, scalar_subquery_probability=0.3, cte_probability=0.25,
)


def pool_parser():
    return parallel.build_parser()


def serve_parser():
    subparsers = distributed_cli.build_parser()._subparsers._group_actions[0]
    return subparsers.choices["serve"]


def surface(parser):
    return {
        action.dest: (
            tuple(action.option_strings),
            action.default,
            action.type.__name__ if action.type else None,
            tuple(action.choices) if action.choices else None,
            type(action).__name__,
        )
        for action in parser._actions
        if action.dest in CAMPAIGN_ACTIONS or action.dest == "workers"
    }


def options(parser):
    return {option for action in parser._actions for option in action.option_strings}


class TestPinnedSurface:
    @pytest.mark.parametrize("build, workers, every_option", [
        (pool_parser, 4, POOL_OPTIONS),
        (serve_parser, 2, SERVE_OPTIONS),
    ])
    def test_parser_matches_the_hand_declared_flags(self, build, workers,
                                                    every_option):
        parser = build()
        expected = dict(CAMPAIGN_ACTIONS)
        expected["workers"] = (("--workers",), workers, "int", None, "_StoreAction")
        assert surface(parser) == expected
        assert options(parser) == every_option

    def test_ablation_switches_and_hint_cap_stay_off_the_cli(self):
        flagged = {declared.name for declared, _ in campaign_flags()}
        for name in ("use_noise", "use_ground_truth", "use_kqe", "max_hint_sets"):
            assert name not in flagged

    def test_serve_echo_keys(self):
        args = serve_parser().parse_args([])
        assert set(distributed_cli._campaign_echo(campaign_spec(args), args)) == (
            ECHO_KEYS)

    def test_wire_keys_and_order(self):
        assert list(encode_campaign_config(CampaignConfig())) == WIRE_KEYS

    def test_snapshot_campaign_fingerprint(self):
        shards = build_shard_specs("differential", FINGERPRINTED_CONFIG, 2,
                                   backend="sqlite")
        server = IndexServer(shards=shards, sync_hours=(1, 2)).start()
        try:
            with server._cond:
                assert server._campaign_fingerprint_locked() == FINGERPRINT
        finally:
            server.stop()


# -------------------------------------------------------- one declaration


def non_default(declared, hint):
    """A valid value of *declared* other than its default, from its type."""
    choices = declared.metadata.get("choices")
    if choices:
        return choices[-1] if choices[-1] != declared.default else choices[0]
    if hint is bool:
        return not declared.default
    if hint is float:
        return declared.default + 0.375
    if hint is str:
        return "other-" + declared.default
    return (declared.default or 0) + 3  # int and Optional[int]


def spec_setting(declared, value):
    """A valid spec whose only non-default choice is *declared* = *value*."""
    overrides = {declared.name: value}
    kinds = declared.metadata.get("kinds")
    if kinds is not None:
        overrides.setdefault("kind", kinds[0])
    return CampaignSpec(**overrides)


def argv_of(declared, value):
    flag = declared.metadata["flag"]
    return [flag] if isinstance(value, bool) else [flag, str(value)]


HINTS = get_type_hints(CampaignSpec)
SPEC_FIELDS = [pytest.param(declared, id=declared.name)
               for declared in fields(CampaignSpec)]
# Serve can set only the flagged fields, so only those ride in its echo.
FLAGGED_FIELDS = [pytest.param(declared, id=declared.name)
                  for declared, _ in campaign_flags()]
CONFIG_NAMES = {declared.name for declared in fields(CampaignConfig)}
#: The ShardSpec key of each spec-only field on the wire; ``workers`` is not
#: a key but the number of shards.
SHARD_KEYS = {"kind": "kind", "dialect": "dialect", "baseline": "baseline",
              "backend": "backend"}


class TestEveryFieldReachesEveryCopy:
    @pytest.mark.parametrize("declared", FLAGGED_FIELDS)
    def test_cli_argv_to_campaign_spec(self, declared):
        value = non_default(declared, HINTS[declared.name])
        kinds = declared.metadata.get("kinds")
        context = ["--kind", kinds[0]] if kinds else []
        for build in (pool_parser, serve_parser):
            reference = campaign_spec(build().parse_args(context))
            parsed = campaign_spec(
                build().parse_args(context + argv_of(declared, value)))
            assert parsed == replace(reference, **{declared.name: value})

    @pytest.mark.parametrize("declared", SPEC_FIELDS)
    def test_shard_spec_wire_round_trip(self, declared):
        value = non_default(declared, HINTS[declared.name])
        shards = campaign_shards(spec_setting(declared, value))
        decoded = [decode_shard_spec(json.loads(json.dumps(encode_shard_spec(shard))))
                   for shard in shards]
        assert decoded == shards
        if declared.name in CONFIG_NAMES:
            values = {getattr(shard.config, declared.name) for shard in decoded}
            assert values == {value}
        elif declared.name in SHARD_KEYS:
            assert {getattr(shard, SHARD_KEYS[declared.name])
                    for shard in decoded} == {value}
        else:
            assert len(decoded) == value

    @pytest.mark.parametrize("declared", FLAGGED_FIELDS)
    def test_serve_echo_to_verify_local_rebuild(self, declared):
        value = non_default(declared, HINTS[declared.name])
        kinds = declared.metadata.get("kinds")
        extra = (["--kind", kinds[0]] if kinds else []) + argv_of(declared, value)
        args = serve_parser().parse_args(extra)
        spec = campaign_spec(args)
        echo = json.loads(json.dumps(distributed_cli._campaign_echo(spec, args)))
        assert campaign_spec(argparse.Namespace(**echo)) == spec
        assert getattr(spec, declared.name) == value

    @pytest.mark.parametrize("declared", [
        field for field in SPEC_FIELDS if field.id != "workers"])
    def test_wrong_typed_wire_value_is_a_protocol_error(self, declared):
        spec = spec_setting(declared, non_default(declared, HINTS[declared.name]))
        encoded = encode_shard_spec(campaign_shards(spec)[0])
        if declared.name in CONFIG_NAMES:
            target, key = encoded["config"], declared.name
        else:
            target, key = encoded, SHARD_KEYS[declared.name]
        target[key] = 7 if isinstance(target[key], str) else "7"
        with pytest.raises(ProtocolError, match=key):
            decode_shard_spec(encoded)


class TestCampaignConfigIsFrozen:
    def test_fields_cannot_be_assigned(self):
        config = CampaignConfig()
        with pytest.raises(AttributeError):
            config.hours = 3  # type: ignore[misc]

    def test_spec_declares_only_its_own_fields(self):
        own = [declared.name for declared in fields(CampaignSpec)
               if declared.name not in CONFIG_NAMES]
        assert own == ["kind", "dialect", "baseline", "backend", "workers"]
        assert CampaignSpec().campaign_config() == CampaignConfig()

    @pytest.mark.parametrize("key", ["use_widgets", "use_query_cache"])
    def test_unknown_wire_key_is_a_protocol_error(self, key):
        encoded = encode_campaign_config(CampaignConfig())
        encoded[key] = True
        with pytest.raises(ProtocolError, match=key):
            decode_campaign_config(encoded)

    def test_unknown_shard_spec_key_is_a_protocol_error(self):
        encoded = encode_shard_spec(campaign_shards(CampaignSpec())[0])
        encoded["batch_size"] = 4
        with pytest.raises(ProtocolError, match="batch_size"):
            decode_shard_spec(encoded)

    def test_retired_config_key_inside_a_shard_spec_is_a_protocol_error(self):
        encoded = encode_shard_spec(campaign_shards(
            CampaignSpec(kind="differential"))[0])
        encoded["config"]["use_query_cache"] = True
        with pytest.raises(ProtocolError, match="use_query_cache"):
            decode_shard_spec(encoded)

    @pytest.mark.parametrize("retired", [
        pytest.param({"query_cache": True}, id="query_cache"),
        pytest.param({"batch_size": 4}, id="batch_size"),
    ])
    def test_old_serve_echo_with_one_retired_key_rebuilds(self, retired):
        args = serve_parser().parse_args(["--kind", "differential",
                                          "--workers", "3"])
        echo = json.loads(json.dumps(
            distributed_cli._campaign_echo(campaign_spec(args), args)))
        rebuilt = campaign_shards(campaign_spec(
            argparse.Namespace(**dict(echo, **retired))))
        assert rebuilt == campaign_shards(campaign_spec(args))
        assert len(rebuilt) == 3

    def test_old_serve_echo_rebuilds_the_same_shards(self):
        args = serve_parser().parse_args(["--kind", "differential"])
        echo = json.loads(json.dumps(
            distributed_cli._campaign_echo(campaign_spec(args), args)))
        retired = dict(echo, query_cache=True, batch_size=4)
        assert campaign_shards(campaign_spec(argparse.Namespace(**retired))) == (
            campaign_shards(campaign_spec(argparse.Namespace(**echo))))


# ------------------------------------------------------------- kind checks

_TQS_ONLY_DIFFERENTIAL_FLAGS = [
    pytest.param(["--setop-probability", "0.4"], "setop_probability=0.4",
                 id="setop-probability"),
    pytest.param(["--scalar-subquery-probability", "0.3"],
                 "scalar_subquery_probability=0.3", id="scalar-subquery-probability"),
    pytest.param(["--cte-probability", "0.25"], "cte_probability=0.25",
                 id="cte-probability"),
]
_SMALL = ["--kind", "tqs", "--workers", "1", "--hours", "1",
          "--queries-per-hour", "2", "--dataset-rows", "20"]


def _never_called(*args, **kwargs):
    raise AssertionError("a refused campaign must not start workers or a server")


class TestKindChecks:
    @pytest.mark.parametrize("flags, message", _TQS_ONLY_DIFFERENTIAL_FLAGS)
    def test_pool_cli_refuses_differential_only_flags(self, monkeypatch, capsys,
                                                      flags, message):
        monkeypatch.setattr(parallel, "run_parallel_shards", _never_called)
        with pytest.raises(SystemExit) as exited:
            parallel.main(_SMALL + flags)
        assert exited.value.code not in (0, None)
        err = capsys.readouterr().err
        assert message in err and "needs a differential campaign" in err

    @pytest.mark.parametrize("flags, message", _TQS_ONLY_DIFFERENTIAL_FLAGS)
    def test_serve_cli_refuses_differential_only_flags(self, monkeypatch, flags,
                                                       message):
        monkeypatch.setattr(server_module.IndexServer, "__init__", _never_called)
        with pytest.raises(SystemExit) as exited:
            distributed_cli.main(["serve", *_SMALL, *flags])
        assert exited.value.code not in (0, None)
        err = str(exited.value.code)
        assert message in err and "needs a differential campaign" in err

    @pytest.mark.parametrize("flags", [
        pytest.param(["--query-cache"], id="query-cache"),
        pytest.param(["--batch-size", "4"], id="batch-size"),
    ])
    def test_pool_cli_refuses_retired_flags(self, monkeypatch, capsys, flags):
        monkeypatch.setattr(parallel, "run_parallel_shards", _never_called)
        with pytest.raises(SystemExit) as exited:
            parallel.main(["--kind", "differential", *_SMALL[2:], *flags])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flags[0] in err

    @pytest.mark.parametrize("flags", [
        pytest.param(["--query-cache"], id="query-cache"),
        pytest.param(["--batch-size", "4"], id="batch-size"),
    ])
    def test_serve_cli_refuses_retired_flags(self, monkeypatch, capsys, flags):
        monkeypatch.setattr(server_module.IndexServer, "__init__", _never_called)
        with pytest.raises(SystemExit) as exited:
            distributed_cli.main(["serve", "--kind", "differential",
                                  *_SMALL[2:], *flags])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flags[0] in err

    def test_build_shard_specs_runs_the_kind_checks(self):
        with pytest.raises(CampaignError, match="setop_probability=0.4"):
            build_shard_specs("tqs", CampaignConfig(setop_probability=0.4), 1)
        with pytest.raises(CampaignError, match="cte_probability=0.25"):
            build_shard_specs("baseline", CampaignConfig(cte_probability=0.25),
                              1, baseline="NoRec")
        with pytest.raises(CampaignError, match="unknown campaign dialect"):
            run_campaign(CampaignSpec(dialect="SimNoSuchDB"))

    @pytest.mark.parametrize("kind", ["tqs", "baseline"])
    @pytest.mark.parametrize("probability", [
        "setop_probability", "scalar_subquery_probability", "cte_probability",
    ])
    def test_widened_grammar_needs_a_differential_campaign(self, kind,
                                                           probability):
        # tqs generates through generate_query, which ignores set operations
        # and CTEs, and its ground truth cannot evaluate a scalar subquery;
        # baselines generate their own join queries.
        spec = CampaignSpec(kind=kind, baseline="NoRec", dialect="SimMySQL",
                            dataset_rows=30, hours=4, queries_per_hour=15,
                            seed=3, **{probability: 0.4})
        with pytest.raises(CampaignError, match=f"{probability}=0.4 needs a "
                                                "differential campaign"):
            run_campaign(spec)

    def test_tqs_scalar_subqueries_are_refused_not_crashed(self):
        spec = CampaignSpec(kind="tqs", scalar_subquery_probability=0.4,
                            dialect="SimMySQL", dataset_rows=30, hours=4,
                            queries_per_hour=15, seed=3)
        with pytest.raises(CampaignError):
            run_campaign(spec)
