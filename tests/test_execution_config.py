"""The unified ExecutionConfig surface and its CLI parent.

One frozen object (:class:`repro.core.config.ExecutionConfig`) owns the
cross-cutting run knobs — plane/workers/hosts, faults, cost model,
topology, materialization — with :class:`AlgorithmParameters` carrying
it as its ``execution`` field and the CLI declaring it once through
``add_execution_args`` / ``execution_config_from_args``.  These tests
pin that it is the only run surface, the single executor seam
(``plane`` names the data layout, ``workers``/``hosts`` pick where batch
kernels run), and the shared-flag parsing/validation of every
subcommand.
"""

import dataclasses
import inspect

import pytest

from repro.congest.routing import DEFAULT_COST_MODEL
from repro.congest.topology import Topology
from repro.core.config import ExecutionConfig
from repro.core.congested_clique_listing import list_cliques_congested_clique
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.core.sparsity_aware import _sparsity_aware_batch, sparsity_aware_listing
from repro.dist import get_cluster
from repro.faults import FaultModel
from repro.graphs.generators import erdos_renyi
from repro.parallel import get_executor
from repro.serve import EpochSnapshot
from repro.stream import QueryEngine, StreamEngine


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert config.plane == "batch"
        assert config.workers == 1
        assert config.hosts == ()
        assert config.faults is None
        assert config.materialize is False
        assert config.cost_model == DEFAULT_COST_MODEL
        assert config.topology is None

    def test_validation(self):
        with pytest.raises(ValueError, match="plane"):
            ExecutionConfig(plane="quantum")
        with pytest.raises(ValueError, match="workers"):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError, match="hosts"):
            ExecutionConfig(hosts=("local", ""))
        with pytest.raises(TypeError, match="cost_model"):
            ExecutionConfig(cost_model="cheap")
        with pytest.raises(TypeError, match="topology"):
            ExecutionConfig(topology=42)
        with pytest.raises(ValueError):
            ExecutionConfig(topology="torus")
        with pytest.raises(TypeError, match="hosts"):
            ExecutionConfig(plane="dist", hosts="local")
        with pytest.raises(TypeError, match="faults"):
            ExecutionConfig(faults="x")
        with pytest.raises(TypeError, match="workers"):
            ExecutionConfig(workers=True)

    def test_hosts_frozen_to_tuple(self):
        config = ExecutionConfig(hosts=["local", "spawn"])
        assert config.hosts == ("local", "spawn")

    def test_topology_spec_strings_parse_at_construction(self):
        config = ExecutionConfig(topology="grid:8@bw=0.5")
        assert isinstance(config.topology, Topology)
        assert config.topology_spec() == "grid:8@bw=0.5"
        assert ExecutionConfig().topology_spec() is None

    def test_with_(self):
        config = ExecutionConfig().with_(plane="object")
        assert (config.plane, config.workers) == ("object", 1)
        config = ExecutionConfig().with_(workers=3)
        assert (config.plane, config.workers) == ("batch", 3)
        # frozen: no in-place mutation
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.plane = "batch"

    def test_resolve_executor_central_planes(self):
        assert ExecutionConfig().resolve_executor() is None
        assert ExecutionConfig(plane="object").resolve_executor() is None

    def test_resolve_executor_is_the_dist_seam(self):
        # Pool and cluster both come out of the one config seam, as the
        # same process-wide registry objects the rest of the code uses.
        config = ExecutionConfig(workers=2)
        assert config.resolve_executor() is get_executor(2)
        cluster = ExecutionConfig(hosts=("local",)).resolve_executor()
        assert cluster is get_cluster(("local",))

    @pytest.mark.parametrize(
        "plane, workers, hosts, executor",
        [
            ("batch", 1, (), lambda: None),
            ("batch", 2, (), lambda: get_executor(2)),
            ("batch", 1, ("local", "local"), lambda: get_cluster(("local", "local"))),
            ("batch", 2, ("local", "local"), lambda: get_cluster(("local", "local"))),
            # The legacy spellings keep their meaning: "parallel" is the
            # batch layout on the workers pool, "dist" on the hosts
            # cluster, and "dist" with no hosts is one in-process node.
            ("parallel", 2, (), lambda: get_executor(2)),
            ("parallel", 1, (), lambda: None),
            ("dist", 1, ("local", "local"), lambda: get_cluster(("local", "local"))),
            ("dist", 1, (), lambda: get_cluster(())),
            ("object", 1, (), lambda: None),
            # The object plane is the inline reference: no field it
            # cannot honour is silently dropped.
            ("object", 2, (), ValueError),
            ("object", 1, ("local",), ValueError),
        ],
    )
    def test_executor_table(self, plane, workers, hosts, executor):
        if executor is ValueError:
            with pytest.raises(ValueError, match="object plane"):
                ExecutionConfig(plane=plane, workers=workers, hosts=hosts)
            return
        config = ExecutionConfig(plane=plane, workers=workers, hosts=hosts)
        assert config.plane == ("object" if plane == "object" else "batch")
        assert config.resolve_executor() is executor()

    def test_legacy_spellings_read_as_batch(self):
        assert ExecutionConfig(plane="parallel", workers=2) == ExecutionConfig(workers=2)
        assert ExecutionConfig(plane="dist") == ExecutionConfig(hosts=("local",))
        assert ExecutionConfig(plane="dist", hosts=("a:1",)).hosts == ("a:1",)


class TestParamsComposition:
    def test_params_compose_a_default_config(self):
        params = AlgorithmParameters(p=4)
        assert isinstance(params.execution, ExecutionConfig)
        assert params.execution == ExecutionConfig()

    def test_execution_is_the_only_run_surface(self):
        g = erdos_renyi(12, 0.5, seed=0)
        with pytest.raises(TypeError):
            AlgorithmParameters(p=3, plane="object")
        with pytest.raises(TypeError):
            list_cliques_congested_clique(g, 3, plane="batch")
        with pytest.raises(TypeError):
            QueryEngine(StreamEngine(g)).listing_result(3, plane="batch")
        with pytest.raises(TypeError, match="execution"):
            AlgorithmParameters(p=3, execution=None)
        names = {f.name for f in dataclasses.fields(AlgorithmParameters)}
        assert not names & {f.name for f in dataclasses.fields(ExecutionConfig)}
        assert not hasattr(AlgorithmParameters, "with_")

    @pytest.mark.parametrize(
        "function",
        [
            list_cliques_congest,
            list_cliques_congested_clique,
            sparsity_aware_listing,
            _sparsity_aware_batch,
            QueryEngine.listing_result,
            EpochSnapshot.listing_result,
            EpochSnapshot.learned,
        ],
        ids=lambda function: function.__qualname__,
    )
    def test_no_per_call_plane_override(self, function):
        assert "plane" not in inspect.signature(function).parameters


class TestCliExecutionParent:
    """add_execution_args / execution_config_from_args on every subcommand."""

    def _config(self, argv):
        from repro.cli import execution_config_from_args, make_parser

        return execution_config_from_args(make_parser().parse_args(argv))

    def test_list_defaults(self):
        config = self._config(["list", "--n", "16"])
        assert config == ExecutionConfig()

    def test_workers_pick_the_pool(self):
        config = self._config(["list", "--n", "16", "--workers", "3"])
        assert config == ExecutionConfig(workers=3)
        assert config.resolve_executor() is get_executor(3)

    def test_distributed_picks_the_cluster(self):
        config = self._config(
            ["list", "--n", "16", "--distributed", "--hosts", "local,local"]
        )
        assert config == ExecutionConfig(hosts=("local", "local"))
        assert config.resolve_executor() is get_cluster(("local", "local"))

    def test_plane_accepts_the_two_layouts(self):
        from repro.cli import make_parser

        for legacy in ("parallel", "dist"):
            with pytest.raises(SystemExit):
                make_parser().parse_args(["list", "--plane", legacy])

    def test_explicit_plane_wins(self):
        config = self._config(["list", "--n", "16", "--plane", "object"])
        assert config.plane == "object"

    def test_topology_and_faults_flow_into_config(self):
        config = self._config(
            [
                "list", "--n", "16", "--topology", "grid:4@lat=1",
                "--fault-seed", "5", "--drop-rate", "0.01", "--materialize",
            ]
        )
        assert config.topology == Topology(kind="grid", grid_width=4, latency=1.0)
        assert config.faults == FaultModel(seed=5, drop_rate=0.01)
        assert config.materialize is True

    def test_stream_and_serve_share_the_parent(self):
        stream = self._config(["stream", "--n", "16", "--workers", "2"])
        assert stream == ExecutionConfig(workers=2)
        serve = self._config(["serve", "--n", "16", "--workers", "2"])
        assert serve.workers == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["list", "--n", "16", "--hosts", "local"], "requires --distributed"),
            (
                ["list", "--n", "16", "--plane", "object", "--workers", "2"],
                "invalid execution configuration",
            ),
            (["list", "--n", "16", "--topology", "torus"], "invalid --topology"),
            (
                ["list", "--n", "16", "--plane", "object", "--distributed",
                 "--hosts", "local"],
                "invalid execution configuration",
            ),
        ],
    )
    def test_typed_pairing_errors(self, argv, message):
        with pytest.raises(SystemExit, match=message):
            self._config(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--n", "16", "--requests", "0"],
            ["serve", "--n", "16", "--requests", "many"],
            ["serve", "--n", "16", "--rate", "0"],
            ["serve", "--n", "16", "--rate", "-3"],
            ["serve", "--n", "16", "--rate", "inf"],
            ["serve", "--n", "16", "--compact-every", "0"],
            ["serve", "--n", "16", "--query-threads", "0"],
            ["stream", "--n", "16", "--compact-every", "-1"],
            ["sweep", "--workers", "0"],
        ],
    )
    def test_argparse_types_reject_nonsense(self, argv, capsys):
        from repro.cli import make_parser

        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_serve_has_no_fault_or_topology_flags(self):
        from repro.cli import make_parser

        with pytest.raises(SystemExit):
            make_parser().parse_args(["serve", "--fault-seed", "1"])
        with pytest.raises(SystemExit):
            make_parser().parse_args(["serve", "--topology", "star"])

    def test_split_topology_list_keeps_cost_suffixes(self):
        from repro.cli import _split_topology_list

        assert _split_topology_list("star,ring") == ["star", "ring"]
        assert _split_topology_list("grid:8@bw=0.5,lat=2,ring,clique") == [
            "grid:8@bw=0.5,lat=2",
            "ring",
            "clique",
        ]
        assert _split_topology_list(" star , spanner:3@lat=1 ") == [
            "star",
            "spanner:3@lat=1",
        ]

    def test_sweep_keys_workers_without_a_plane(self, monkeypatch):
        from repro import cli

        seen = {}

        def capture(spec, **kwargs):
            seen["overrides"] = spec.algo_overrides
            raise SystemExit(0)

        monkeypatch.setattr(cli, "run_sweep", capture)
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--n", "8", "--p", "3", "--workers", "2",
                      "--jobs", "1", "--cache-dir", ""])
        assert seen["overrides"] == {"workers": 2}
        with pytest.raises(SystemExit, match="invalid execution configuration"):
            cli.main(["sweep", "--n", "8", "--p", "3", "--plane", "object",
                      "--workers", "2", "--cache-dir", ""])
