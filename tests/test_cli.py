"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main, make_parser
from repro.graphs.generators import planted_cliques
from repro.graphs.io import write_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_list_defaults(self):
        args = make_parser().parse_args(["list"])
        assert args.p == 4 and args.model == "congest"

    def test_decompose_defaults(self):
        args = make_parser().parse_args(["decompose"])
        assert args.threshold == 8


class TestClosedStdout:
    def test_a_reader_that_closes_early_gets_exit_1_without_a_traceback(self):
        """``repro.cli list ... | true``: the reader is gone before the
        first line, so the write raises ``BrokenPipeError``; ``main``
        catches it once for every subcommand."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "list", "--n", "60", "--p", "3",
             "--model", "congested-clique"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # long before the interpreter has started up
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


class TestListCommand:
    def test_generated_graph(self, capsys):
        assert main(["list", "--generator", "planted", "--n", "48", "--p", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "cliques:" in out and "rounds:" in out

    def test_congested_clique_model(self, capsys):
        assert main(["list", "--generator", "er", "--n", "40", "--density", "0.3",
                     "--p", "3", "--model", "congested-clique", "--verify"]) == 0
        assert "rounds:" in capsys.readouterr().out

    def test_input_file(self, tmp_path, capsys):
        g = planted_cliques(30, [5], background_p=0.1, seed=1)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert main(["list", "--input", str(path), "--p", "4", "--verify"]) == 0

    def test_show_cliques(self, capsys):
        main(["list", "--generator", "planted", "--n", "48", "--p", "4",
              "--show-cliques"])
        out = capsys.readouterr().out
        # At least one clique line of 4 integers.
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert any(len(l.split()) == 4 for l in lines)

    def test_ledger_flag(self, capsys):
        main(["list", "--generator", "er", "--n", "40", "--p", "3",
              "--show-ledger"])
        assert "total rounds" in capsys.readouterr().out

    def test_unknown_generator_rejected(self):
        with pytest.raises(SystemExit):
            main(["list", "--generator", "nope"])

    def test_variant_rejected_outside_congest(self):
        with pytest.raises(SystemExit, match="invalid run parameters.*congest only"):
            main(["list", "--generator", "er", "--n", "40", "--p", "3",
                  "--model", "congested-clique", "--variant", "k4"])


class TestDecomposeCommand:
    def test_caveman(self, capsys):
        assert main(["decompose", "--generator", "caveman", "--n", "96",
                     "--threshold", "6"]) == 0
        out = capsys.readouterr().out
        assert "num_clusters" in out and "charged_rounds" in out

    def test_sparse(self, capsys):
        assert main(["decompose", "--generator", "sparse", "--n", "120",
                     "--threshold", "8"]) == 0
        assert "es_edges" in capsys.readouterr().out


class TestBoundsCommand:
    def test_prints_catalogue(self, capsys):
        assert main(["bounds", "--n", "256"]) == 0
        out = capsys.readouterr().out
        assert "Thm 1.2" in out and "Eden et al. K4" in out and "lower bound" in out


class TestSweepCommand:
    def test_runs_and_caches(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["sweep", "--workloads", "er,sparse", "--n", "20", "--p", "3",
                "--cache-dir", str(cache), "--jobs", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "workload er" in out and "sweep summary" in out
        assert "0 hit(s), 2 miss(es)" in out
        assert len(list(cache.glob("*.json"))) == 2
        # Identical re-run answers entirely from the cache.
        assert main(argv) == 0
        assert "2 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_param_override_and_output(self, tmp_path, capsys):
        out_file = tmp_path / "rows.json"
        assert main(["sweep", "--workloads", "sparse", "--n", "20", "--p", "3",
                     "--param", "sparse.arboricity=2", "--cache-dir", "",
                     "--jobs", "1", "--output", str(out_file)]) == 0
        import json
        rows = json.loads(out_file.read_text())["rows"]
        assert rows[0]["workload_params"] == {"arboricity": 2}

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "nope", "--n", "20", "--p", "3",
                  "--cache-dir", ""])

    def test_bad_param_syntax_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "er", "--n", "20", "--p", "3",
                  "--cache-dir", "", "--param", "density_0.3"])

    def test_param_for_unselected_workload_rejected(self):
        with pytest.raises(SystemExit, match="not in --workloads"):
            main(["sweep", "--workloads", "er", "--n", "20", "--p", "3",
                  "--cache-dir", "", "--param", "ers.density=0.2"])

    def test_bad_param_value_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="invalid sweep grid"):
            main(["sweep", "--workloads", "er", "--n", "20", "--p", "3",
                  "--cache-dir", "", "--param", "er.density=abc"])

    def test_bad_variant_rejected_cleanly(self):
        with pytest.raises(SystemExit, match="invalid sweep grid"):
            main(["sweep", "--workloads", "er", "--n", "20", "--p", "3",
                  "--cache-dir", "", "--variants", "bogus"])

    def test_bad_int_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--workloads", "er", "--n", "20;30", "--p", "3",
                  "--cache-dir", ""])


class TestStreamCommand:
    def test_replay_with_verify(self, capsys):
        assert main(["stream", "--family", "stream_window", "--n", "64",
                     "--p", "3", "--compact-every", "48", "--verify"]) == 0
        captured = capsys.readouterr()
        assert "final: m=" in captured.out
        assert "compactions" in captured.out
        assert "verified" in captured.err

    def test_multiple_ps_and_params(self, capsys):
        assert main(["stream", "--family", "stream_churn", "--n", "49",
                     "--p", "3,4", "--param", "churn=8",
                     "--param", "batches=4"]) == 0
        out = capsys.readouterr().out
        assert "K3=" in out and "K4=" in out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit, match="unknown stream family"):
            main(["stream", "--family", "er"])

    def test_bad_param_rejected(self):
        with pytest.raises(SystemExit, match="--param"):
            main(["stream", "--family", "stream_window", "--param", "rate-3"])
        with pytest.raises(SystemExit, match="invalid stream spec"):
            main(["stream", "--family", "stream_window", "--param", "nope=3"])

    def test_defaults(self):
        args = make_parser().parse_args(["stream"])
        assert args.family == "stream_churn" and args.compact_every == 256


class TestServeCommand:
    def test_demo_verifies_every_response(self, capsys):
        assert main(["serve", "--demo", "--requests", "80", "--rate",
                     "800"]) == 0
        out = capsys.readouterr().out
        assert "requests: 80/80 completed" in out
        assert "latency: p50" in out and "p99" in out
        assert "verified: every response matched" in out
        assert "epochs:" in out

    def test_explicit_family_without_verify(self, capsys):
        assert main(["serve", "--family", "stream_window", "--n", "24",
                     "--pattern", "uniform", "--requests", "40", "--rate",
                     "2000"]) == 0
        out = capsys.readouterr().out
        assert "requests: 40/40 completed" in out
        assert "verified" not in out

    def test_defaults(self):
        args = make_parser().parse_args(["serve"])
        assert args.pattern == "zipfian" and args.requests == 320
        assert args.compact_every == 64 and args.query_threads == 4

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--pattern", "tsunami"])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit, match="unknown stream family"):
            main(["serve", "--family", "nope"])


class TestFaultFlags:
    """--fault-seed/--drop-rate route into the fault-injection plane."""

    def test_defaults_are_off(self):
        from repro.cli import _fault_model_from_args

        for command in ("sweep", "stream"):
            args = make_parser().parse_args([command])
            assert args.fault_seed is None and args.drop_rate == 0.0
            assert _fault_model_from_args(args) is None

    def test_flags_round_trip_into_parameters(self):
        from repro.cli import _fault_model_from_args
        from repro.core.config import ExecutionConfig
        from repro.core.params import AlgorithmParameters
        from repro.faults import FaultModel

        args = make_parser().parse_args(
            ["sweep", "--fault-seed", "11", "--drop-rate", "0.05"]
        )
        model = _fault_model_from_args(args)
        assert model == FaultModel(seed=11, drop_rate=0.05)
        params = AlgorithmParameters(
            p=3, execution=ExecutionConfig(faults=model)
        ).execution
        assert params.faults is model and params.faults.active

    def test_fault_seed_alone_attaches_inactive_seam(self):
        from repro.cli import _fault_model_from_args

        args = make_parser().parse_args(["stream", "--fault-seed", "3"])
        model = _fault_model_from_args(args)
        assert model is not None and model.seed == 3
        assert not model.active  # zero rates: a deliberate no-op schedule

    def test_faulted_sweep_verifies_and_misses_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        base = ["sweep", "--workloads", "er", "--n", "20", "--p", "3",
                "--cache-dir", str(cache), "--jobs", "1"]
        assert main(base) == 0
        assert "0 hit(s), 1 miss(es)" in capsys.readouterr().out
        # The fault model is part of the cache key: same grid, new cell.
        assert main(base + ["--drop-rate", "0.05"]) == 0
        assert "0 hit(s), 1 miss(es)" in capsys.readouterr().out
        # The faulted row itself is cached and replayable.
        assert main(base + ["--drop-rate", "0.05"]) == 0
        assert "1 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_faulted_stream_checks_final_graph(self, capsys):
        assert main(["stream", "--family", "stream_churn", "--n", "36",
                     "--p", "3", "--param", "churn=8", "--param", "batches=3",
                     "--fault-seed", "7", "--drop-rate", "0.05"]) == 0
        err = capsys.readouterr().err
        assert "fault-check p=3" in err and "recovery rounds" in err
