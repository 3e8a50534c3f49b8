"""Tests for the batched sweep runner (repro.analysis.sweeps)."""

import json

import pytest

from repro.analysis.sweeps import (
    COMPARATORS,
    RunSpec,
    SweepSpec,
    _run_params,
    execute_run,
    resolve_jobs,
    run_sweep,
)
from repro.baselines import bounds
from repro.core.config import ExecutionConfig
from repro.core.params import AlgorithmParameters
from repro.faults import FaultModel


def small_spec(**overrides):
    base = dict(
        workloads=["er", ("sparse", {"arboricity": 2})],
        sizes=[20, 28],
        ps=[3],
        seed=1,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestGridExpansion:
    def test_full_grid(self):
        cells = small_spec().runs()
        assert len(cells) == 4  # 2 workloads × 2 sizes × 1 p × 1 variant
        assert {c.workload for c in cells} == {"er", "sparse"}
        assert dict(cells[-1].params) == {"arboricity": 2}

    def test_k4_variant_skipped_for_other_p(self):
        cells = small_spec(ps=[3, 4], variants=["k4"]).runs()
        assert cells and all(c.p == 4 for c in cells)

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(ValueError, match="unknown workload"):
            small_spec(workloads=["nope"]).runs()

    def test_unknown_param_fails_fast(self):
        with pytest.raises(TypeError, match="unknown parameter"):
            small_spec(workloads=[("er", {"densty": 0.5})]).runs()

    def test_unusable_param_value_fails_fast(self):
        with pytest.raises(TypeError):
            small_spec(workloads=[("er", {"density": "abc"})]).runs()

    def test_unknown_variant_fails_fast(self):
        with pytest.raises(ValueError, match="unknown variant"):
            small_spec(variants=["bogus"]).runs()

    @pytest.mark.parametrize(
        "cell",
        [
            dict(model="eden-k4", ps=[3]),
            dict(model="broadcast", algo_overrides={"stop_scale": 0.5}),
            dict(model="cc-general", topologies=["ring"]),
            dict(model="neighborhood-broadcast", variants=["generic"]),
        ],
    )
    def test_comparator_cells_that_would_drop_a_setting_are_rejected(self, cell):
        with pytest.raises(ValueError, match="eden-k4|comparator"):
            small_spec(**cell).runs()


class TestCacheKey:
    def base(self, **overrides):
        fields = dict(
            workload="er",
            params=(),
            n=20,
            p=3,
            variant=None,
            model="congest",
            seed=1,
            verify=True,
        )
        fields.update(overrides)
        return RunSpec(**fields)

    def test_stable(self):
        assert self.base().cache_key() == self.base().cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2},
            {"n": 24},
            {"p": 4},
            {"variant": "generic"},
            {"model": "congested-clique"},
            {"params": (("density", 0.3),)},
            {"extra": (("stop_scale", 0.5),)},
            {"verify": False},
        ],
    )
    def test_any_field_changes_key(self, change):
        assert self.base().cache_key() != self.base(**change).cache_key()

    @pytest.mark.parametrize(
        "model, overrides, key",
        [
            ("congest", {}, "e7aea8e8a0391ea52568699c"),
            ("congest", {"stop_scale": 0.5}, "029414697a39ba26edb43e05"),
            (
                "congest",
                {"faults": FaultModel(seed=5, drop_rate=0.01)},
                "5c969eb2a481df89caf80e08",
            ),
            (
                "congested-clique",
                {"plane": "parallel", "workers": 2},
                "591a8795c740ad6ec4f45760",
            ),
        ],
    )
    def test_keys_are_pinned(self, model, overrides, key):
        """Existing caches keep hitting: a flat override keys the same
        whether it names an algorithm or an execution field."""
        spec = SweepSpec(
            workloads=["er"], sizes=[32], ps=[3], model=model, algo_overrides=overrides
        )
        (cell,) = spec.runs()
        assert cell.cache_key() == key


class TestExecution:
    def test_rows_are_verified_and_complete(self):
        result = run_sweep(small_spec())
        assert len(result.rows) == 4
        for row in result.rows:
            assert row["verified"] and not row["cached"]
            assert row["rounds"] > 0 and row["theory"] > 0
            assert isinstance(row["phases"], dict) and row["phases"]
        # No cache dir: every run is a miss.
        assert (result.cache_hits, result.cache_misses) == (0, 4)

    def test_cache_miss_then_hit(self, tmp_path):
        spec = small_spec()
        first = run_sweep(spec, cache_dir=tmp_path)
        assert (first.cache_hits, first.cache_misses) == (0, 4)
        assert len(list(tmp_path.glob("*.json"))) == 4

        second = run_sweep(spec, cache_dir=tmp_path)
        assert (second.cache_hits, second.cache_misses) == (4, 0)
        assert all(row["cached"] for row in second.rows)
        # Cached rows reproduce the computed ones (minus the cached flag).
        for a, b in zip(first.rows, second.rows):
            assert a["rounds"] == b["rounds"] and a["cliques"] == b["cliques"]

    def test_changed_spec_misses(self, tmp_path):
        run_sweep(small_spec(), cache_dir=tmp_path)
        shifted = run_sweep(small_spec(seed=2), cache_dir=tmp_path)
        assert shifted.cache_hits == 0 and shifted.cache_misses == 4

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        spec = small_spec()
        run_sweep(spec, cache_dir=tmp_path)
        victim = next(tmp_path.glob("*.json"))
        victim.write_text("not json {")
        again = run_sweep(spec, cache_dir=tmp_path)
        assert (again.cache_hits, again.cache_misses) == (3, 1)
        assert json.loads(victim.read_text())["rounds"] > 0

    def test_multiprocessing_matches_inline(self, tmp_path):
        spec = small_spec()
        inline = run_sweep(spec)
        fanned = run_sweep(spec, jobs=2)
        assert [r["rounds"] for r in inline.rows] == [r["rounds"] for r in fanned.rows]
        assert [r["cliques"] for r in inline.rows] == [r["cliques"] for r in fanned.rows]

    def test_congested_clique_model(self):
        result = run_sweep(
            small_spec(workloads=["sparse"], model="congested-clique", sizes=[20])
        )
        (row,) = result.rows
        assert row["model"] == "congested-clique" and row["variant"] == "-"

    def test_overrides_split_into_algorithm_and_execution_fields(self):
        faults = FaultModel(seed=5, drop_rate=0.01)
        (cell,) = small_spec(
            workloads=["er"], sizes=[20], topologies=["ring"],
            algo_overrides={"stop_scale": 0.5, "faults": faults, "plane": "object"},
        ).runs()
        params = _run_params(cell, AlgorithmParameters(p=3))
        assert params.stop_scale == 0.5
        assert params.execution == ExecutionConfig(
            plane="object", faults=faults, topology="ring"
        )

    def test_execute_run_rejects_unknown_model(self):
        spec = RunSpec(
            workload="er",
            params=(),
            n=10,
            p=3,
            variant=None,
            model="telepathy",
            seed=0,
            verify=False,
        )
        with pytest.raises(ValueError, match="unknown model"):
            execute_run(spec)

    @pytest.mark.parametrize("model", sorted(COMPARATORS))
    def test_comparator_models_run_verified(self, model):
        p, theory = {
            "eden-k4": (4, bounds.eden_k4(24)),
            "broadcast": (4, bounds.trivial_broadcast(24)),
            "neighborhood-broadcast": (3, bounds.trivial_broadcast(24)),
            "cc-general": (3, bounds.congested_clique_general(24, 3)),
        }[model]
        (cell,) = SweepSpec(workloads=["er"], sizes=[24], ps=[p], model=model).runs()
        row = execute_run(cell)
        assert row["verified"] and row["model"] == model and row["variant"] == "-"
        assert row["cliques"] > 0 and row["rounds"] > 0
        assert row["theory"] == theory

    def test_resolve_jobs(self):
        assert resolve_jobs(1, 100) == 1
        assert resolve_jobs(16, 3) == 3
        assert 1 <= resolve_jobs(0, 100) <= 8


class TestReport:
    def test_markdown_report(self, tmp_path):
        result = run_sweep(small_spec(), cache_dir=tmp_path)
        report = result.to_markdown()
        assert "workload er" in report and "workload sparse" in report
        assert "sweep summary" in report
        assert "cache: 0 hit(s), 4 miss(es)" in report

    def test_same_family_distinct_params_get_separate_tables(self):
        result = run_sweep(
            SweepSpec(
                workloads=[("er", {"density": 0.2}), ("er", {"density": 0.8})],
                sizes=[16],
                ps=[3],
                seed=1,
            )
        )
        report = result.to_markdown()
        assert 'workload er {"density": 0.2}' in report
        assert 'workload er {"density": 0.8}' in report

    def test_json_round_trip(self):
        result = run_sweep(small_spec(sizes=[20], workloads=["sparse"]))
        payload = json.loads(result.to_json())
        assert payload["rows"][0]["workload"] == "sparse"
        assert payload["cache_misses"] == 1
