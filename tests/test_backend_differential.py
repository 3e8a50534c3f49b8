"""Differential tests: python vs csr backends must agree exactly.

The CSR kernels re-implement the degeneracy orientation and the Kp
enumeration with completely different data structures (numpy arrays and
bitset rows instead of dicts of sets).  The only thing keeping them
honest is this module: for every registered workload family and several
seeds, both backends must produce *identical* orientation out-degrees,
clique sets and triangle counts.  A divergence anywhere is a kernel bug
by definition — the pure-Python implementation is the specification.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.cliques import count_cliques, enumerate_cliques
from repro.graphs.csr import degeneracy_csr, triangle_count_csr
from repro.graphs.orientation import degeneracy_orientation, validate_orientation
from repro.graphs.properties import degeneracy, triangle_count
from repro.workloads import available_workloads, create_workload

N = 48
SEEDS = (0, 1)

FAMILIES = sorted(available_workloads())


def test_all_six_families_registered():
    """The sweep families this module certifies (guards against silent
    coverage loss if a family is renamed or dropped)."""
    assert set(FAMILIES) >= {
        "er",
        "zipfian",
        "planted",
        "caveman",
        "sparse",
        "adversarial",
    }


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", SEEDS)
class TestBackendsAgree:
    def _instance(self, family, seed):
        return create_workload(family).instance(N, seed=seed)

    def test_orientation_out_degrees_identical(self, family, seed):
        g = self._instance(family, seed)
        py = degeneracy_orientation(g, backend="python")
        csr = degeneracy_orientation(g, backend="csr")
        validate_orientation(g, py)
        validate_orientation(g, csr)
        # Not just the degrees — the oriented edges themselves match,
        # which is what the shared tie-break rule guarantees.
        assert np.array_equal(py.keys, csr.keys), (family, seed)

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_clique_sets_identical(self, family, seed, p):
        g = self._instance(family, seed)
        py = enumerate_cliques(g, p, backend="python")
        csr = enumerate_cliques(g, p, backend="csr")
        assert py == csr, (
            f"{family} seed={seed} p={p}: "
            f"{len(py - csr)} python-only, {len(csr - py)} csr-only"
        )
        assert count_cliques(g, p, backend="csr") == len(py)

    def test_triangle_counts_identical(self, family, seed):
        g = self._instance(family, seed)
        expected = len(enumerate_cliques(g, 3, backend="python"))
        assert triangle_count(g, backend="csr") == expected
        assert triangle_count(g, backend="python") == expected
        assert triangle_count_csr(g.to_csr()) == expected

    def test_degeneracy_identical(self, family, seed):
        g = self._instance(family, seed)
        assert degeneracy(g, backend="python") == degeneracy(g, backend="csr")
        assert degeneracy_csr(g.to_csr()) == degeneracy(g, backend="python")


class TestAutoBackend:
    """``backend="auto"`` must be pure routing — never a third behavior."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_auto_matches_python(self, family):
        g = create_workload(family).instance(N, seed=2)
        for p in (3, 4):
            assert enumerate_cliques(g, p, backend="auto") == enumerate_cliques(
                g, p, backend="python"
            )

    def test_auto_rejects_unknown_backend(self):
        g = create_workload("er").instance(8, seed=0)
        with pytest.raises(ValueError, match="unknown backend"):
            enumerate_cliques(g, 3, backend="numpy")
        with pytest.raises(ValueError, match="unknown backend"):
            degeneracy_orientation(g, backend="fast")
