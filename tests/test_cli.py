"""Tests for the command-line interface."""

import pytest

from repro.cli import WORKLOADS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out
        assert "s55" in out and "s56" in out

    def test_check_requires_known_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "nonexistent"])

    def test_defaults(self):
        args = build_parser().parse_args(["check", "paxos"])
        assert args.algorithm == "lmc-opt"
        assert args.nodes == 3
        assert not args.buggy


class TestCheckCommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check", "tree"]) == 0
        out = capsys.readouterr().out
        assert "bugs          : 0" in out

    def test_buggy_2pc_exits_one(self, capsys):
        assert main(["check", "2pc", "--buggy"]) == 1
        out = capsys.readouterr().out
        assert "BUG" in out

    def test_bdfs_algorithm(self, capsys):
        assert main(["check", "tree", "--algorithm", "bdfs"]) == 0
        out = capsys.readouterr().out
        assert "global states" in out

    def test_lmc_gen_algorithm(self, capsys):
        assert main(["check", "chain", "--algorithm", "lmc-gen"]) == 0

    def test_parallel_algorithm(self, capsys):
        """Exploration is serial only: no parallel ``--algorithm`` choice."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["check", "tree", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{bdfs,lmc-gen,lmc-opt}" in out
        assert "parallel" not in out

    def test_depth_bound_flag(self, capsys):
        assert main(["check", "echo", "--max-depth", "2"]) == 0


class TestScenarioCommand:
    def test_s55_buggy_finds_bug(self, capsys):
        assert main(["scenario", "s55"]) == 1
        out = capsys.readouterr().out
        assert "Paxos agreement violated" in out

    def test_s55_correct_is_clean(self, capsys):
        assert main(["scenario", "s55", "--correct"]) == 0

    def test_s56_buggy_finds_bug(self, capsys):
        assert main(["scenario", "s56"]) == 1
        out = capsys.readouterr().out
        assert "1Paxos agreement violated" in out

    def test_s56_correct_is_clean(self, capsys):
        assert main(["scenario", "s56", "--correct"]) == 0


class TestFaultFlags:
    """The omission-fault knobs (docs/FAULTS.md) thread CLI → LMCConfig."""

    def test_fault_flags_parse_round_trip(self):
        args = build_parser().parse_args(
            [
                "check",
                "2pc-timeout",
                "--drop-faults",
                "--max-drops",
                "3",
                "--duplicate-faults",
                "--duplicate-limit",
                "2",
                "--partition",
                "1:2:0:1,2",
                "--partition",
                "3:-:1:0",
            ]
        )
        assert args.drop_faults is True
        assert args.max_drops == 3
        assert args.duplicate_faults is True
        assert args.duplicate_limit == 2
        assert args.partitions == [
            (1, 2, (0,), (1, 2)),
            (3, None, (1,), (0,)),
        ]

    def test_fault_flags_default_off(self):
        args = build_parser().parse_args(["check", "2pc-timeout"])
        assert args.drop_faults is False
        assert args.max_drops is None
        assert args.duplicate_faults is False
        assert args.duplicate_limit is None
        assert args.partitions is None

    @pytest.mark.parametrize(
        "spec", ["nonsense", "1:2:0", "x:2:0:1", "1:2::1", "1:2:0:"]
    )
    def test_malformed_partition_spec_is_rejected(self, spec):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["check", "2pc-timeout", "--partition", spec]
            )

    def test_duplicate_limit_reaches_the_config(self, capsys):
        # --duplicate-faults alone must fail config validation (the default
        # duplicate_limit is 0), proving the limit flag is what feeds the
        # admission budget through to LMCConfig.
        with pytest.raises(ValueError, match="duplicate_limit"):
            main(["check", "tree", "--duplicate-faults", "--no-registry"])
        capsys.readouterr()
        assert (
            main(
                [
                    "check",
                    "tree",
                    "--duplicate-faults",
                    "--duplicate-limit",
                    "1",
                    "--no-registry",
                ]
            )
            == 0
        )

    def test_drop_faults_find_the_timeout_atomicity_bug(self, capsys):
        assert main(["check", "2pc-timeout", "--no-registry"]) == 0
        capsys.readouterr()
        assert (
            main(["check", "2pc-timeout", "--drop-faults", "--no-registry"])
            == 1
        )
        out = capsys.readouterr().out
        assert "2PC atomicity violated" in out
        assert "drop Decision" in out

    def test_max_drops_zero_disarms_the_drop_sweep(self, capsys):
        assert (
            main(
                [
                    "check",
                    "2pc-timeout",
                    "--drop-faults",
                    "--max-drops",
                    "0",
                    "--no-registry",
                ]
            )
            == 0
        )

    def test_permanent_partition_suppresses_the_bug(self, capsys):
        assert (
            main(
                [
                    "check",
                    "2pc-timeout",
                    "--drop-faults",
                    "--partition",
                    "1:-:0:1,2",
                    "--no-registry",
                ]
            )
            == 0
        )
