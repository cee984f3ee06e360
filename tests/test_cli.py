"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
import shlex

import pytest

import repro.cli
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


# vars(Namespace) of each command line in repro.cli's docstring, as the
# parser that built every subcommand up front returned them ("..." is
# filled in from the first full example; environments by their spec).
_AGENTS = [[3, 17, 40], [17, 58], [3, 58]]
_NETSIM = {
    "agents": 5000, "algorithm": "paper", "as_json": False, "certify": 0,
    "chunk": 4096, "churn": 0.0, "churn_window": 10000, "command": "netsim",
    "engine": "vectorized", "environment": None, "horizon": 500000, "k": 3,
    "rho": 0.5, "seed": 0, "store_dir": None, "telemetry": None,
    "universe": 12, "wake_spread": 16, "workload": "random_subsets",
}
_SWEEP = {
    "agents": _AGENTS, "algorithm": "paper", "checkpoint_dir": None,
    "command": "sweep", "degradation": None, "dense": 64, "environment": None,
    "horizon": 1000000, "probes": 64, "read_roots": None, "results_dir": None,
    "resume": False, "store_cap": None, "store_dir": None, "telemetry": None,
    "universe": 64, "workers": 1,
}
_SERVE = {
    "a": [3, 17, 40], "algorithm": "paper", "as_json": False, "b": [17, 58],
    "command": "serve", "dense": 64, "horizon": 1000000, "probes": 64,
    "read_roots": None, "results_dir": ".results", "seed": 0,
    "store_dir": None, "telemetry": None, "universe": 64,
}
DOCSTRING_NAMESPACES = {
    "schedule --channels 3,17,40 --universe 64 --slots 20": {
        "algorithm": "paper", "channels": [3, 17, 40], "command": "schedule",
        "slots": 20, "universe": 64,
    },
    "rendezvous --a 3,17,40 --b 17,58 --universe 64": {
        "a": [3, 17, 40], "algorithm": "paper", "b": [17, 58],
        "command": "rendezvous", "horizon": 1000000, "shift": 0, "universe": 64,
    },
    "bound --k 3 --l 4 --universe 64": {
        "command": "bound", "k": 3, "l": 4, "universe": 64,
    },
    "simulate --agents 3,17,40/17,58/3,58 --universe 64": {
        "agents": _AGENTS, "algorithm": "paper", "command": "simulate",
        "horizon": 200000, "universe": 64, "wake_stagger": 13,
    },
    "netsim --workload random_subsets --universe 12 --k 3 --agents 5000": _NETSIM,
    "netsim --workload random_subsets --universe 12 --agents 600 --certify 50": {
        **_NETSIM, "agents": 600, "certify": 50,
    },
    "netsim --workload whitespace --universe 24 --agents 2000 --churn 0.2 --json": {
        **_NETSIM, "agents": 2000, "as_json": True, "churn": 0.2,
        "universe": 24, "workload": "whitespace",
    },
    "sweep --agents 3,17,40/17,58/3,58 --universe 64": _SWEEP,
    "sweep --agents ... --universe 64 --store-dir .schedules --store-cap 1000000": {
        **_SWEEP, "store_cap": 1000000, "store_dir": ".schedules",
    },
    "sweep --agents ... --universe 64 --checkpoint-dir .ckpt --resume": {
        **_SWEEP, "checkpoint_dir": ".ckpt", "resume": True,
    },
    "sweep --agents ... --universe 64 --environment pu-churn:rate=0.1,seed=7": {
        **_SWEEP,
        "environment": {
            "kind": "pu-churn", "rate": 0.1, "seed": 7, "dwell": 64,
            "channels": None,
        },
    },
    "sweep --agents ... --universe 64 --environment fading:p=0.05 --degradation 4000": {
        **_SWEEP,
        "degradation": 4000,
        "environment": {"kind": "fading", "p": 0.05, "seed": 0},
    },
    "sweep --agents ... --universe 64 --telemetry text": {
        **_SWEEP, "telemetry": "text",
    },
    "serve --a 3,17,40 --b 17,58 --universe 64 --results-dir .results": _SERVE,
    "serve --a ... --b ... --universe 64 --results-dir .results --json": {
        **_SERVE, "as_json": True,
    },
    "store prewarm --agents ... --universe 64 --store-dir .schedules": {
        "action": "prewarm", "agents": _AGENTS, "algorithm": "paper",
        "command": "store", "store_dir": ".schedules", "universe": 64,
    },
    "store inspect --store-dir .schedules": {
        "action": "inspect", "command": "store", "store_dir": ".schedules",
    },
    "store evict --store-dir .schedules --all": {
        "action": "evict", "all": True, "command": "store", "digest": None,
        "store_dir": ".schedules",
    },
    "walk --bits 110100": {"bits": "110100", "command": "walk"},
}

_SUBCOMMANDS = (
    "schedule", "rendezvous", "bound", "simulate", "netsim", "sweep", "serve",
    "store", "walk",
)


def _docstring_command_lines() -> list[tuple[str, list[str]]]:
    """``(line after 'python -m repro ', argv)`` per docstring example."""
    fill = {"--agents": "3,17,40/17,58/3,58", "--a": "3,17,40", "--b": "17,58"}
    lines = []
    for line in repro.cli.__doc__.splitlines():
        line = line.strip()
        if not line.startswith("python -m repro "):
            continue
        argv = shlex.split(line)[3:]
        argv = [
            fill[argv[i - 1]] if token == "..." else token
            for i, token in enumerate(argv)
        ]
        lines.append((line.removeprefix("python -m repro "), argv))
    return lines


def _subcommand_parsers(parser: argparse.ArgumentParser) -> dict:
    [action] = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


class TestSubcommandParsers:
    def test_docstring_command_lines_parse_as_before(self):
        lines = _docstring_command_lines()
        assert [line for line, _ in lines] == list(DOCSTRING_NAMESPACES)
        for line, argv in lines:
            parsed = vars(build_parser().parse_args(argv))
            if parsed.get("environment") is not None:
                parsed["environment"] = parsed["environment"].spec()
            assert parsed == DOCSTRING_NAMESPACES[line], line

    def test_nine_subcommands_in_order_and_serve_options(self):
        parser = build_parser()
        parsers = _subcommand_parsers(parser)
        assert list(parsers) == list(_SUBCOMMANDS)
        parser.parse_args(
            ["serve", "--a", "1,5", "--b", "5,9", "--universe", "16",
             "--results-dir", "cache"]
        )
        options = [a.dest for a in parsers["serve"]._actions]
        assert options[0] == "help" and len(options) == 1 + 13

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for name in _SUBCOMMANDS:
            assert f"\n    {name} " in out, name

    @pytest.mark.parametrize(
        "argv,options",
        [
            (
                ["serve"],
                ["-h, --help", "--a", "--b", "--results-dir", "--store-dir", "--json"],
            ),
            (["store", "evict"], ["-h, --help", "--store-dir", "--digest", "--all"]),
        ],
    )
    def test_subcommand_help_lists_its_options(self, capsys, argv, options):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {' '.join(argv)} [-h] ")
        for option in options:
            assert option in out, option

    def test_usage_error_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--a", "1,5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro serve [-h] --a A --b B")
        assert "the following arguments are required: --b, --universe" in err


@pytest.fixture
def fresh_parser():
    """Start and end with no parser built in this process."""
    repro.cli._parser.cache_clear()
    yield
    repro.cli._parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser")
class TestSharedParser:
    """``main`` parses every command line of a process with one parser."""

    SERVE = [
        "serve", "--a", "1,5,9", "--b", "5,12", "--universe", "16",
        "--algorithm", "zos", "--dense", "8", "--probes", "8",
    ]

    def test_main_builds_the_parser_once(self, capsys, tmp_path, monkeypatch):
        builds = []
        original = repro.cli.build_parser
        monkeypatch.setattr(
            repro.cli, "build_parser", lambda: builds.append(1) or original()
        )
        results = ["--results-dir", str(tmp_path / "results")]
        assert main(["bound", "--k", "3", "--l", "4", "--universe", "64"]) == 0
        assert main(["schedule", "--channels", "3,7", "--universe", "16"]) == 0
        assert main(self.SERVE + results) == 0
        assert main(self.SERVE + results + ["--json"]) == 0
        assert main(["walk", "--bits", "1101"]) == 0
        assert builds == [1]

    def test_append_and_store_true_do_not_carry_over(
        self, capsys, tmp_path, monkeypatch
    ):
        namespaces = []
        help_line, add_arguments, handler = repro.cli._COMMANDS["serve"]
        monkeypatch.setitem(
            repro.cli._COMMANDS,
            "serve",
            (
                help_line,
                add_arguments,
                lambda args: namespaces.append(vars(args).copy()) or handler(args),
            ),
        )
        results = ["--results-dir", str(tmp_path / "results")]
        store = ["--store-dir", str(tmp_path / "store")]
        warm = ["--read-root", str(tmp_path / "warm")]
        assert main(self.SERVE + results + store + warm + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["source"] == "computed"
        assert main(self.SERVE + results) == 0
        assert "source: cache hit" in capsys.readouterr().out
        first, second = namespaces
        assert first["read_roots"] == [str(tmp_path / "warm")]
        assert first["as_json"] is True
        assert second["read_roots"] is None
        assert second["as_json"] is False
        assert second["store_dir"] is None

    @pytest.mark.parametrize(
        "argv,code",
        [(["serve", "--a", "1,5"], 2), (["serve", "--help"], 0)],
        ids=["usage-error", "help"],
    )
    def test_next_call_answers_after_an_exit(self, capsys, tmp_path, argv, code):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
        capsys.readouterr()
        assert main(self.SERVE + ["--results-dir", str(tmp_path / "r")]) == 0
        out, err = capsys.readouterr()
        assert "source: computed" in out and err == ""
        assert main(["bound", "--k", "3", "--l", "4", "--universe", "64"]) == 0
        assert "drds envelope" in capsys.readouterr().out


class TestChannelsOutsideUniverse:
    """A channel outside ``[0, --universe)`` fails like ``sweep`` does:
    one ``<command> failed: <message>`` line and exit code 1."""

    CASES = {
        "serve": (
            ["serve", "--a", "1,2", "--b", "2,40", "--results-dir", "{tmp}/r"],
            ["set [2, 40] outside universe [0, 16)",
             "set [1, 2] outside universe [0, 0)"],
        ),
        "rendezvous": (
            ["rendezvous", "--a", "1,2", "--b", "2,40"],
            ["channels [2, 40] outside universe [0, 16)",
             "channels [1, 2] outside universe [0, 0)"],
        ),
        "schedule": (
            ["schedule", "--channels", "2,40"],
            ["channels [2, 40] outside universe [0, 16)",
             "channels [2, 40] outside universe [0, 0)"],
        ),
        "simulate": (
            ["simulate", "--agents", "1,2/2,40"],
            ["channels [2, 40] outside universe [0, 16)",
             "channels [1, 2] outside universe [0, 0)"],
        ),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_reports_and_exits_1(self, capsys, tmp_path, command):
        argv, messages = self.CASES[command]
        argv = [token.replace("{tmp}", str(tmp_path)) for token in argv]
        for universe, message in zip(("16", "0"), messages):
            assert main(argv + ["--universe", universe]) == 1
            out, err = capsys.readouterr()
            assert out == f"{command} failed: {message}\n"
            assert err == ""


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
        assert "\n2 entries (2 live), " in out
        header, _, *rows = out.split("\n\n")[0].splitlines()
        assert header.split() == ["digest", "n", "period", "KiB", "live"]
        assert sorted(row.split()[1:3] + row.split()[4:] for row in rows) == [
            ["16", "11648", "yes"], ["8", "2944", "yes"]
        ]

    def test_inspect_marks_stale_records(self, capsys, tmp_path, monkeypatch):
        import repro.core.store as store_module
        from repro.core.store import ScheduleStore, sequence_digest

        with monkeypatch.context() as patch:
            patch.setattr(store_module, "source_digest", lambda *names: "f" * 16)
            ScheduleStore(tmp_path).global_sequence(8)
        ScheduleStore(tmp_path).global_sequence(8)
        code = main(["store", "inspect", "--store-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "\n2 entries (1 live), " in out
        _, _, *rows = out.split("\n\n")[0].splitlines()
        live = {row.split()[0]: row.split()[-1] for row in rows}
        assert live.pop(sequence_digest(8)) == "yes"
        assert list(live.values()) == ["no"]

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
    """``sweep`` has no lane count or tile budget to set: every value of
    the two removed flags is an unknown argument."""

    ARGS = ["sweep", "--agents", "1,2/2,3", "--universe", "8"]

    def _rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(self.ARGS + [flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_tile_bytes_rejects_garbage(self, capsys):
        for value in ("huge", "-4", "auto", "4096"):
            self._rejected(capsys, "--tile-bytes", value)

    def test_stream_workers_rejects_negative(self, capsys):
        for value in ("-2", "2"):
            self._rejected(capsys, "--stream-workers", value)

    def test_sweep_help_lists_neither_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "--stream-workers" not in out and "--tile-bytes" not in out


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

    def test_hit_scans_no_directory_and_miss_scans_once(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.core.blobs import BlobStore

        scans = []
        original = BlobStore.scan
        monkeypatch.setattr(
            BlobStore, "scan", lambda blobs: scans.append(1) or original(blobs)
        )
        results = tmp_path / "results"
        args = self.ARGS + ["--results-dir", str(results)]
        assert main(args + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["source"] == "computed"
        assert len(scans) == 1  # the byte-cap check of the one put
        assert cold["cache"] == {
            "hits": 0, "misses": 1, "writes": 1, "invalidations": 0,
            "evictions": 0,
        }
        scans.clear()
        assert main(args + ["--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["source"] == "cache hit"
        assert warm["cache"] == {
            "hits": 1, "misses": 0, "writes": 0, "invalidations": 0,
            "evictions": 0,
        }
        assert main(args) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[-1] == (
            f"result cache {results}: 1 hits, 0 misses, 0 writes"
        )
        assert scans == []

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
