"""Tests for AlgorithmParameters (threshold formulas)."""

import math
from dataclasses import replace

import pytest

from repro.core.params import AlgorithmParameters, GENERIC_VARIANT, K4_VARIANT


class TestValidation:
    def test_p_too_small(self):
        with pytest.raises(ValueError):
            AlgorithmParameters(p=2)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            AlgorithmParameters(p=4, variant="magic")

    def test_k4_variant_requires_p4(self):
        with pytest.raises(ValueError):
            AlgorithmParameters(p=5, variant=K4_VARIANT)

    def test_k4_variant_ok(self):
        AlgorithmParameters(p=4, variant=K4_VARIANT)


class TestExponent:
    def test_p4_generic(self):
        # max(3/4, 4/6) = 3/4
        assert AlgorithmParameters(p=4).exponent() == 0.75

    def test_p5_generic(self):
        # max(3/4, 5/7) = 3/4
        assert AlgorithmParameters(p=5).exponent() == 0.75

    def test_p6(self):
        assert AlgorithmParameters(p=6).exponent() == 0.75  # 6/8 = 3/4

    def test_p7_dominated_by_p_term(self):
        assert AlgorithmParameters(p=7).exponent() == pytest.approx(7 / 9)

    def test_p10(self):
        assert AlgorithmParameters(p=10).exponent() == pytest.approx(10 / 12)

    def test_k4_variant(self):
        assert AlgorithmParameters(p=4, variant=K4_VARIANT).exponent() == pytest.approx(
            2 / 3
        )


class TestThresholds:
    def test_heavy_threshold_generic_formula(self):
        params = AlgorithmParameters(p=5)
        assert params.heavy_threshold(n=256, arboricity=100) == math.ceil(256**0.25)

    def test_heavy_threshold_k4_formula(self):
        params = AlgorithmParameters(p=4, variant=K4_VARIANT)
        # A / n^{1/3} with A=64, n=512 → 64/8 = 8
        assert params.heavy_threshold(n=512, arboricity=64) == 8

    def test_heavy_threshold_scaled(self):
        base = AlgorithmParameters(p=4, variant=GENERIC_VARIANT)
        doubled = replace(base, heavy_scale=2.0)
        assert doubled.heavy_threshold(256, 10) >= 2 * base.heavy_threshold(256, 10) - 1

    def test_heavy_threshold_floor_one(self):
        params = AlgorithmParameters(p=4, variant=K4_VARIANT)
        assert params.heavy_threshold(n=1000, arboricity=1) == 1

    def test_bad_threshold_paper_formula(self):
        params = AlgorithmParameters(p=4)
        n = 256
        assert params.bad_threshold(n) == math.ceil(100 * 16 * 8)

    def test_bad_threshold_scale_down(self):
        params = AlgorithmParameters(p=4, bad_scale=0.001)
        assert params.bad_threshold(256) < AlgorithmParameters(p=4).bad_threshold(256)

    def test_peel_threshold(self):
        params = AlgorithmParameters(p=4)
        # A/(2·log2 n): A=128, n=256 → 128/16 = 8
        assert params.peel_threshold(256, 128) == 8

    def test_peel_threshold_floor(self):
        params = AlgorithmParameters(p=4)
        assert params.peel_threshold(256, 1) == 1

    def test_stop_arboricity_generic(self):
        params = AlgorithmParameters(p=6)
        assert params.stop_arboricity(256) == math.ceil(256**0.75)

    def test_stop_arboricity_k4(self):
        params = AlgorithmParameters(p=4, variant=K4_VARIANT)
        assert params.stop_arboricity(512) == math.ceil(512 ** (2 / 3))

    def test_iteration_budgets_default(self):
        params = AlgorithmParameters(p=4)
        assert params.list_iteration_budget(256) == 10
        assert params.arb_iteration_budget(256) == 10

    def test_iteration_budget_override(self):
        params = AlgorithmParameters(p=4, max_list_iterations=3)
        assert params.list_iteration_budget(10**6) == 3


class TestNumParts:
    @pytest.mark.parametrize(
        "k,p,expected",
        [
            (16, 4, 2),  # 2^4 = 16 ≤ 16
            (15, 4, 1),  # 2^4 = 16 > 15
            (81, 4, 3),
            (8, 3, 2),
            (1, 4, 1),
            (1000, 3, 10),
        ],
    )
    def test_floor_root(self, k, p, expected):
        assert AlgorithmParameters(p=p).num_parts(k) == expected

    def test_coverage_invariant(self):
        # s^p ≤ k always (the completeness requirement).
        for p in (3, 4, 5, 6):
            params = AlgorithmParameters(p=p)
            for k in (1, 2, 7, 16, 100, 1024):
                s = params.num_parts(k)
                assert s**p <= k or s == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            AlgorithmParameters(p=4).num_parts(0)

    def test_with_updates(self):
        params = AlgorithmParameters(p=4)
        updated = replace(params, stop_scale=0.5)
        assert updated.stop_scale == 0.5 and params.stop_scale == 1.0
