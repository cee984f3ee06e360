"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_channel_list(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["schedule", "--channels", "1,x", "--universe", "8"]
            )

    def test_empty_channel_list(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["schedule", "--channels", "", "--universe", "8"]
            )

    def test_algorithm_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["schedule", "--channels", "1", "--universe", "8",
                 "--algorithm", "quantum"]
            )


class TestScheduleCommand:
    def test_prints_slots(self, capsys):
        code = main(
            ["schedule", "--channels", "3,7", "--universe", "16", "--slots", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "period:" in out
        slots = out.strip().split("slots:")[1].split()
        assert len(slots) == 8
        assert set(slots) <= {"3", "7"}

    def test_baseline_algorithm(self, capsys):
        code = main(
            ["schedule", "--channels", "1,2", "--universe", "8",
             "--algorithm", "crseq", "--slots", "5"]
        )
        assert code == 0
        assert "crseq" in capsys.readouterr().out


class TestRendezvousCommand:
    def test_meeting_pair(self, capsys):
        code = main(
            ["rendezvous", "--a", "3,7", "--b", "7,11", "--universe", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "common channels: [7]" in out
        assert "TTR at shift 0:" in out
        assert "analytic bound:" in out

    def test_disjoint_pair_fails(self, capsys):
        code = main(
            ["rendezvous", "--a", "1,2", "--b", "5,6", "--universe", "16",
             "--horizon", "500"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "no rendezvous" in out

    def test_shift_respected(self, capsys):
        code = main(
            ["rendezvous", "--a", "3,7", "--b", "7,11", "--universe", "16",
             "--shift", "29"]
        )
        assert code == 0
        assert "shift 29" in capsys.readouterr().out


class TestBoundCommand:
    def test_prints_all_guarantees(self, capsys):
        code = main(["bound", "--k", "3", "--l", "4", "--universe", "32"])
        out = capsys.readouterr().out
        assert code == 0
        for label in ("Thm 3", "symmetric", "crseq", "jump-stay", "drds"):
            assert label in out


class TestSimulateCommand:
    def test_full_discovery(self, capsys):
        code = main(
            ["simulate", "--agents", "1,5/5,9/1,9", "--universe", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all overlapping pairs met" in out
        assert "agent0-agent1" in out

    def test_insufficient_horizon_reports_unmet(self, capsys):
        code = main(
            ["simulate", "--agents", "1,5/5,9", "--universe", "16",
             "--horizon", "2"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "unmet" in out


class TestNetsimCommand:
    ARGS = [
        "netsim", "--workload", "random_subsets", "--universe", "12",
        "--k", "3", "--agents", "120", "--wake-spread", "8",
        "--horizon", "100000",
    ]

    def test_vectorized_run(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "engine:    vectorized" in out
        assert "cohorts" in out
        assert "full discovery: slot" in out
        assert "contended slots" in out

    def test_certify_subsample_parity(self, capsys):
        code = main(self.ARGS + ["--certify", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "30-agent subsample bit-identical" in out

    def test_json_round_trips(self, capsys):
        import json

        code = main(self.ARGS + ["--json", "--certify", "20", "--seed", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["engine"] == "vectorized"
        assert payload["agents"] == 120
        assert payload["met_pairs"] == payload["overlapping_pairs"]
        assert payload["discovery_time"] is not None
        assert payload["parity"]["identical"] is True
        assert payload["seed"] == 3

    def test_pairwise_engine(self, capsys):
        code = main(
            ["netsim", "--workload", "symmetric", "--universe", "8",
             "--k", "3", "--agents", "20", "--engine", "pairwise",
             "--horizon", "5000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine:    pairwise" in out
        assert "cohorts" not in out

    def test_churn_can_strand_pairs(self, capsys):
        code = main(
            ["netsim", "--workload", "random_subsets", "--universe", "10",
             "--k", "3", "--agents", "40", "--churn", "0.9",
             "--churn-window", "2", "--horizon", "300", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "not reached" in out

    def test_store_dir_shares_tables(self, capsys, tmp_path):
        code = main(
            self.ARGS + ["--store-dir", str(tmp_path / "sched")]
        )
        assert code == 0
        assert "full discovery" in capsys.readouterr().out

    def test_zero_agents_rejected(self, capsys):
        code = main(
            ["netsim", "--workload", "random_subsets", "--universe", "12",
             "--agents", "0"]
        )
        assert code == 1
        assert "at least one agent" in capsys.readouterr().out

    def test_engine_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.ARGS + ["--engine", "warp"])

    def test_workload_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["netsim", "--workload", "mystery", "--universe", "12",
                 "--agents", "5"]
            )

    def test_churn_fraction_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.ARGS + ["--churn", "1.5"])


class TestSweepCommand:
    def test_batched_sweep_table(self, capsys):
        code = main(
            ["sweep", "--agents", "1,5/5,9/1,9", "--universe", "16",
             "--dense", "4", "--probes", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worst TTR" in out
        assert "0-1" in out and "1-2" in out
        assert "3 overlapping pairs swept" in out
        assert "cache hits" in out

    def test_sweep_zos_smoke(self, capsys):
        code = main(
            ["sweep", "--agents", "1,5,9/5,20/1,20,31", "--universe", "32",
             "--algorithm", "zos", "--dense", "8", "--probes", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm: zos" in out
        assert "3 overlapping pairs swept" in out

    def test_sweep_rejects_empty_plan(self, capsys):
        code = main(
            ["sweep", "--agents", "1,2/2,3", "--universe", "16",
             "--dense", "0", "--probes", "0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "empty shift plan" in out

    def test_sweep_engine_choices_validated(self):
        # sweep has one sweep path, so it takes no engine option at all
        # (netsim's --engine picks between netsim engines).
        for choice in ("auto", "batched", "stream", "quantum"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["sweep", "--agents", "1,2/2,3", "--universe", "8",
                     "--engine", choice]
                )

    def test_sweep_store_cap_requires_store_dir(self, capsys):
        code = main(
            ["sweep", "--agents", "1,2/2,3", "--universe", "8",
             "--store-cap", "1000"]
        )
        assert code == 2
        assert "--store-cap requires --store-dir" in capsys.readouterr().out

    def test_sweep_store_cap_is_honored(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        args = ["sweep", "--agents", "1,5/5,9/1,9", "--universe", "16",
                "--algorithm", "drds", "--dense", "4", "--probes", "4",
                "--store-dir", store_dir]
        assert main(args + ["--store-cap", "7000"]) == 0
        capped = capsys.readouterr().out
        # The DRDS global sequence at n=16 is ~91 KiB: a 7000-byte cap
        # keeps nothing on disk, and the sweep answers all the same.
        from repro.core.store import ScheduleStore

        assert ScheduleStore(store_dir).total_bytes() == 0
        assert "0 built, 0 attached, 0 entries" in capped
        assert main(args) == 0
        roomy = capsys.readouterr().out
        assert "1 built, 0 attached, 1 entries" in roomy
        table = lambda out: out.split("\n\n")[0]  # noqa: E731
        assert table(capped) == table(roomy)

    def test_sweep_reports_miss(self, capsys):
        # The dense prefix alternates 0, -1, 1, ...; dense=130 reaches
        # shift -64, which cannot meet within a one-slot horizon, so the
        # sweep must fail and say so.
        code = main(
            ["sweep", "--agents", "1,2/1,2", "--universe", "16",
             "--horizon", "1", "--dense", "130", "--probes", "0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "sweep failed" in out


class TestStoreCommand:
    def test_prewarm_then_sweep_attaches(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        code = main(
            ["store", "prewarm", "--agents", "1,5/5,9/1,9", "--universe", "16",
             "--algorithm", "drds", "--store-dir", store_dir]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 built" in out
        code = main(
            ["sweep", "--agents", "1,5/5,9/1,9", "--universe", "16",
             "--algorithm", "drds", "--dense", "4", "--probes", "4",
             "--store-dir", store_dir]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 built, 1 attached, 1 entries" in out

    def test_prewarm_stores_nothing_for_other_algorithms(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        code = main(
            ["store", "prewarm", "--agents", "1,5/5,9", "--universe", "16",
             "--algorithm", "crseq", "--store-dir", store_dir]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agent1 [5, 9]: period 867" in out
        assert "crseq schedules are built in-process" in out
        assert "0 built, 0 already present, 0 entries" in out

    def test_inspect_lists_entries(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        for n in ("16", "8"):
            main(
                ["store", "prewarm", "--agents", "1,5/5,7", "--universe", n,
                 "--algorithm", "drds", "--store-dir", store_dir]
            )
        capsys.readouterr()
        code = main(["store", "inspect", "--store-dir", store_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 entries" in out
        header, _, *rows = out.split("\n\n")[0].splitlines()
        assert header.split() == ["digest", "n", "period", "KiB"]
        assert sorted(row.split()[1:3] for row in rows) == [
            ["16", "11648"], ["8", "2944"]
        ]

    def test_evict_all_and_by_digest(self, capsys, tmp_path):
        store_dir = str(tmp_path / "store")
        for n in ("16", "8"):
            main(
                ["store", "prewarm", "--agents", "1,5/5,7", "--universe", n,
                 "--algorithm", "drds", "--store-dir", store_dir]
            )
        capsys.readouterr()
        code = main(["store", "evict", "--store-dir", store_dir, "--all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "evicted 2 entries" in out
        code = main(
            ["store", "evict", "--store-dir", store_dir, "--digest", "deadbeef"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "no such entry" in out

    def test_store_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])


class TestWalkCommand:
    def test_plots(self, capsys):
        code = main(["walk", "--bits", "110100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "/" in out and "\\" in out


class TestStreamTuningFlags:
    def test_stream_workers_and_auto_tile_match_default(self, capsys):
        args = [
            "sweep", "--agents", "1,5/5,9/1,9", "--universe", "16",
            "--dense", "4", "--probes", "4",
        ]
        assert main(args) == 0
        default_out = capsys.readouterr().out
        tuned = args + ["--stream-workers", "2", "--tile-bytes", "auto"]
        assert main(tuned) == 0
        tuned_out = capsys.readouterr().out
        assert "stream workers: 2 per pair" in tuned_out
        banners = ("tile bytes:", "stream workers:")
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith(banners)
        ]
        assert strip(default_out) == strip(tuned_out)

    def test_tile_bytes_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--agents", "1,2/2,3", "--universe", "8",
                 "--tile-bytes", "huge"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--agents", "1,2/2,3", "--universe", "8",
                 "--tile-bytes", "-4"]
            )

    def test_stream_workers_rejects_negative(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--agents", "1,2/2,3", "--universe", "8",
                 "--stream-workers", "-2"]
            )


class TestServeCommand:
    ARGS = [
        "serve", "--a", "1,5,9", "--b", "5,12", "--universe", "16",
        "--algorithm", "zos", "--horizon", "100000",
    ]

    def test_cold_miss_computes_then_warm_hit_serves(self, capsys, tmp_path):
        results = str(tmp_path / "results")
        assert main(self.ARGS + ["--results-dir", results]) == 0
        cold = capsys.readouterr().out
        assert "source: computed" in cold
        assert "worst TTR:" in cold
        assert "result cache" in cold
        assert main(self.ARGS + ["--results-dir", results]) == 0
        warm = capsys.readouterr().out
        assert "source: cache hit" in warm
        # The served answer is the computed one, verbatim.
        pick = lambda out: [
            line for line in out.splitlines() if line.startswith("worst TTR:")
        ]
        assert pick(warm)[0].replace("cache hit", "computed") == pick(cold)[0]

    def test_json_mode_round_trips(self, capsys, tmp_path):
        import json

        results = str(tmp_path / "results")
        assert main(self.ARGS + ["--results-dir", results, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["source"] == "computed"
        assert cold["query"]["algorithm"] == "zos"
        assert main(self.ARGS + ["--results-dir", results, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["source"] == "cache hit"
        assert warm["digest"] == cold["digest"]
        assert warm["worst_ttr"] == cold["worst_ttr"]
        assert warm["stats"] == cold["stats"]

    def test_serve_with_schedule_store(self, capsys, tmp_path):
        code = main(
            self.ARGS
            + [
                "--results-dir", str(tmp_path / "results"),
                "--store-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        assert (tmp_path / "store").is_dir()

    def test_store_keeps_one_record_across_algorithms(self, capsys, tmp_path):
        # One serve per algorithm into one store: only drds writes, one
        # global-sequence record, and no answer depends on the store.
        import json

        from repro.cli import _ALGORITHMS
        from repro.core.store import GLOBAL_SEQUENCE_ALGORITHM, ScheduleStore

        store_dir = str(tmp_path / "store")
        for algorithm in _ALGORITHMS:
            args = [
                "serve", "--a", "1,5,9", "--b", "5,12", "--universe", "16",
                "--algorithm", algorithm, "--dense", "8", "--probes", "8",
                "--json",
            ]
            answers = []
            for extra in (["--store-dir", store_dir], []):
                results = str(tmp_path / f"results-{algorithm}-{len(extra)}")
                assert main(args + ["--results-dir", results] + extra) == 0
                answer = json.loads(capsys.readouterr().out)
                assert answer["source"] == "computed"
                answers.append(
                    (answer["digest"], answer["worst_ttr"], answer["stats"])
                )
            assert answers[0] == answers[1], algorithm
        entries = ScheduleStore(store_dir).entries()
        assert [(m["algorithm"], m["n"]) for m in entries] == [
            (GLOBAL_SEQUENCE_ALGORITHM, 16)
        ]

    def test_read_root_requires_store_dir(self, capsys, tmp_path):
        code = main(
            self.ARGS
            + [
                "--results-dir", str(tmp_path / "results"),
                "--read-root", str(tmp_path / "warm"),
            ]
        )
        assert code == 2
        assert "--read-root requires --store-dir" in capsys.readouterr().out

    def test_disjoint_pair_fails_cleanly(self, capsys, tmp_path):
        code = main(
            [
                "serve", "--a", "1,2", "--b", "3,4", "--universe", "16",
                "--horizon", "10000",
                "--results-dir", str(tmp_path / "results"),
            ]
        )
        assert code == 1
        assert "serve failed" in capsys.readouterr().out


class TestSweepServiceFlags:
    ARGS = [
        "sweep", "--agents", "1,5,9/5,12/1,12", "--universe", "16",
        "--algorithm", "zos", "--horizon", "100000",
    ]

    def test_results_dir_caches_across_runs(self, capsys, tmp_path):
        results = str(tmp_path / "results")
        assert main(self.ARGS + ["--results-dir", results]) == 0
        cold = capsys.readouterr().out
        assert "result cache" in cold and "3 writes" in cold
        assert main(self.ARGS + ["--results-dir", results]) == 0
        warm = capsys.readouterr().out
        assert "3 hits" in warm and "0 misses" in warm

        def table(out):
            return [l for l in out.splitlines() if l[:3].count("-") == 1]

        assert table(warm) == table(cold) and len(table(cold)) == 3

    def test_checkpoint_roundtrip_and_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert main(self.ARGS + ["--checkpoint-dir", ckpt]) == 0
        first = capsys.readouterr().out
        assert list((tmp_path / "ckpt").glob("*.ckpt.json")) == []
        assert main(self.ARGS + ["--checkpoint-dir", ckpt, "--resume"]) == 0
        second = capsys.readouterr().out
        assert [l for l in second.splitlines() if l and l[0].isdigit()] == [
            l for l in first.splitlines() if l and l[0].isdigit()
        ]

    def test_fresh_run_discards_stale_checkpoints(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        stale = ckpt / "deadbeef.ckpt.json"
        stale.write_text("{}")
        assert main(self.ARGS + ["--checkpoint-dir", str(ckpt)]) == 0
        capsys.readouterr()
        assert not stale.exists()

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().out

    def test_read_root_requires_store_dir(self, capsys, tmp_path):
        code = main(self.ARGS + ["--read-root", str(tmp_path / "warm")])
        assert code == 2
        assert "--read-root requires --store-dir" in capsys.readouterr().out

    def test_read_root_attaches_warm_corpus(self, capsys, tmp_path):
        warm = str(tmp_path / "warm")
        assert main(
            [
                "store", "prewarm", "--agents", "1,5,9/5,12/1,12",
                "--universe", "16", "--algorithm", "drds", "--store-dir", warm,
            ]
        ) == 0
        capsys.readouterr()
        local = str(tmp_path / "local")
        args = [arg if arg != "zos" else "drds" for arg in self.ARGS]
        assert main(args + ["--store-dir", local, "--read-root", warm]) == 0
        out = capsys.readouterr().out
        assert "0 built, 1 attached, 0 entries" in out


class TestSweepEnvironmentFlags:
    ARGS = [
        "sweep", "--agents", "1,5/5,9/1,9", "--universe", "16",
        "--dense", "4", "--probes", "4",
    ]

    def test_environment_adds_missed_column_and_digest(self, capsys):
        code = main(self.ARGS + ["--environment", "fading:p=0.0,seed=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "environment: " in out
        assert "missed" in out
        rows = [l for l in out.splitlines() if l[:3].count("-") == 1]
        assert len(rows) == 3
        # Zero intensity: the missed column is identically zero.
        assert all(row.split()[-1] == "0" for row in rows)

    def test_clean_output_unchanged_by_feature(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "missed" not in out
        assert "environment:" not in out

    def test_malformed_environment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                self.ARGS + ["--environment", "solarflare:p=0.1"]
            )

    def test_degradation_requires_environment(self, capsys):
        code = main(self.ARGS + ["--degradation", "5000"])
        assert code == 2
        assert "--degradation requires --environment" in capsys.readouterr().out

    def test_degradation_report_round_trips(self, capsys):
        import json

        code = main(
            self.ARGS
            + ["--environment", "fading:p=0.0,seed=1",
               "--degradation", "100000"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["mode"] == "degradation"
        assert payload["algorithm"] == "paper"
        assert payload["bound"] == 100000
        assert payload["environment"]["kind"] == "fading"
        assert len(payload["environment_digest"]) == 32
        assert len(payload["pairs"]) == 3
        for row in payload["pairs"]:
            # Zero intensity: every shift survives with inflation 1.0.
            assert row["ok"] is True
            assert row["survival_fraction"] == 1.0
            assert row["lost_shifts"] == []
            assert row["faulted_worst"] == row["clean_worst"]
            assert row["inflation_max"] == 1.0

    def test_degradation_unmet_bound_fails(self, capsys):
        import json

        code = main(
            self.ARGS
            + ["--environment", "fading:p=0.0,seed=1", "--degradation", "1"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert any(row["ok"] is False for row in payload["pairs"])


class TestNetsimEnvironmentFlags:
    ARGS = [
        "netsim", "--workload", "random_subsets", "--universe", "12",
        "--k", "3", "--agents", "120", "--wake-spread", "8",
        "--horizon", "100000",
    ]

    def test_environment_banner_line(self, capsys):
        code = main(self.ARGS + ["--environment", "fading:p=0.0,seed=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "environment: " in out

    def test_certify_probes_masked_paths(self, capsys):
        code = main(self.ARGS + ["--certify", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out
        assert "clean + masked: fading, pu-churn" in out

    def test_certify_json_includes_per_probe_checks(self, capsys):
        import json

        code = main(
            self.ARGS
            + ["--json", "--certify", "20", "--seed", "3",
               "--environment", "fading:p=0.0,seed=1"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        checks = payload["parity"]["checks"]
        assert set(checks) == {"clean", "fading", "pu-churn", "requested"}
        assert all(checks.values())
        assert payload["parity"]["identical"] is True
        assert isinstance(payload["environment"], str)
        assert len(payload["environment"]) == 32


class TestTelemetryFlag:
    SWEEP = [
        "sweep", "--agents", "1,5,9/5,20/1,20,31", "--universe", "32",
        "--algorithm", "jump-stay", "--dense", "4", "--probes", "4",
    ]

    def test_sweep_telemetry_json_is_last_line(self, capsys):
        import json

        from repro.core import telemetry

        code = main(self.SWEEP + ["--telemetry", "json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overlapping pairs swept" in out  # normal output intact
        payload = json.loads(out.strip().splitlines()[-1])
        snap = payload["telemetry"]
        assert payload["wall_seconds"] > 0
        # Root spans fit inside the measured wall time (shared clock).
        assert 0 < snap["total_seconds"] <= payload["wall_seconds"] * 1.25
        assert "runner.serial" in snap["spans"] or (
            "runner.pool_fanout" in snap["spans"]
        )
        # The flag is scoped to the one invocation: off afterwards.
        assert not telemetry.enabled()
        assert telemetry.snapshot()["spans"] == {}

    def test_sweep_telemetry_text_tree(self, capsys):
        code = main(self.SWEEP + ["--telemetry", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry:" in out
        assert "s wall)" in out
        assert "stream.tile_assembly" in out
        assert "counters:" in out

    def test_sweep_without_flag_emits_no_tree(self, capsys):
        code = main(self.SWEEP)
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry:" not in out

    def test_serve_json_reports_latency_and_store_counters(
        self, capsys, tmp_path
    ):
        import json

        args = [
            "serve", "--a", "1,5,9", "--b", "5,12", "--universe", "16",
            "--algorithm", "zos", "--horizon", "100000",
            "--results-dir", str(tmp_path / "results"),
        ]
        assert main(args + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["source"] == "computed"
        assert cold["latency_seconds"] > 0
        assert main(args + ["--json", "--telemetry", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        warm = json.loads(lines[0])
        tree = json.loads(lines[-1])
        assert warm["source"] == "cache hit"
        assert warm["latency_seconds"] > 0
        counters = tree["telemetry"]["counters"]
        assert counters["store.result.hits"] == 1

    def test_serve_text_reports_latency(self, capsys, tmp_path):
        args = [
            "serve", "--a", "1,5,9", "--b", "5,12", "--universe", "16",
            "--algorithm", "zos", "--horizon", "100000",
            "--results-dir", str(tmp_path / "results"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "source: computed" in out
        assert "latency: " in out and " ms" in out

    def test_netsim_accepts_telemetry(self, capsys):
        import json

        code = main(
            ["netsim", "--workload", "random_subsets", "--universe", "16",
             "--k", "3", "--agents", "40", "--algorithm", "jump-stay",
             "--horizon", "20000", "--json", "--telemetry", "json"]
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        tree = json.loads(lines[-1])
        counters = tree["telemetry"]["counters"]
        assert counters["netsim.chunks"] >= 1
        spans = tree["telemetry"]["spans"]
        assert "netsim.assemble" not in spans
        assert "netsim.assemble" in spans["netsim.simulate"]["children"]
