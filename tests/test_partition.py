"""Tests for the random partition and radix assignment (Lemma 2.7, §2.4.3)."""

import itertools
import math

import numpy as np
import pytest

from repro.core.partition import (
    VertexPartition,
    lemma_2_7_bound,
    lemma_2_7_conditions,
    max_pair_load,
    owner_indices,
    owner_rows,
    pair_edge_counts,
    pair_index_array,
    pair_recipient_count,
    pair_recipient_lists,
    radix_assignment,
    radix_digit_table,
    random_partition,
    responsible_index_array,
    responsible_new_id,
    sample_induced_edges,
)
from repro.graphs.generators import erdos_renyi, gnm_random_graph


class TestVertexPartition:
    def test_round_trip_members(self):
        partition = VertexPartition(2, (0, 1, 0, 1))
        assert partition.members(0) == [0, 2]
        assert partition.members(1) == [1, 3]

    def test_pair_of_edge_sorted(self):
        partition = VertexPartition(3, (2, 0, 1))
        assert partition.pair_of_edge(0, 1) == (0, 2)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            VertexPartition(2, (0, 5))

    def test_needs_one_part(self):
        with pytest.raises(ValueError):
            VertexPartition(0, ())


class TestRandomPartition:
    def test_covers_all_nodes(self, rng):
        partition = random_partition(50, 4, rng)
        assert partition.n == 50
        assert all(0 <= p < 4 for p in partition.part_of)

    def test_roughly_balanced(self, rng):
        partition = random_partition(4000, 4, rng)
        sizes = [len(partition.members(i)) for i in range(4)]
        assert max(sizes) < 1.25 * min(sizes)

    def test_single_part(self, rng):
        partition = random_partition(10, 1, rng)
        assert set(partition.part_of) == {0}


class TestPairCounts:
    def test_counts_sum_to_edges(self, small_er, rng):
        partition = random_partition(small_er.num_nodes, 3, rng)
        counts = pair_edge_counts(small_er.edges(), partition)
        assert sum(counts.values()) == small_er.num_edges

    def test_max_pair_load_balance(self, rng):
        g = erdos_renyi(200, 0.3, seed=1)
        partition = random_partition(200, 4, rng)
        worst = max_pair_load(g.edges(), partition)
        # Lemma 2.7-flavored balance: ~m/10 expected per unordered pair
        # (with the diagonal pairs getting half), 6x slack.
        assert worst <= 6 * g.num_edges / 10 + 8 * math.log2(g.num_edges)

    def test_empty_edges(self, rng):
        partition = random_partition(10, 2, rng)
        assert max_pair_load([], partition) == 0


class TestRadixAssignment:
    def test_first_id_gets_all_zero(self):
        assert radix_assignment(1, s=3, p=4) == (0, 0, 0, 0)

    def test_digits_little_endian(self):
        # new_id 2 → index 1 → digits (1, 0, 0).
        assert radix_assignment(2, s=2, p=3) == (1, 0, 0)

    def test_out_of_range_returns_none(self):
        assert radix_assignment(9, s=2, p=3) is None  # 2^3 = 8 IDs only

    def test_all_tuples_covered(self):
        s, p = 2, 3
        seen = {radix_assignment(i + 1, s, p) for i in range(s**p)}
        assert seen == set(itertools.product(range(s), repeat=p))

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            radix_assignment(0, 2, 3)


class TestResponsibleNewId:
    def test_responsibility_contains_multiset(self):
        s, p = 3, 4
        for multiset in itertools.combinations_with_replacement(range(s), p):
            new_id = responsible_new_id(list(multiset), s, p)
            assignment = radix_assignment(new_id, s, p)
            assert assignment is not None
            for part in multiset:
                assert part in assignment

    def test_within_id_range(self):
        s, p = 3, 4
        for multiset in itertools.combinations_with_replacement(range(s), p):
            assert 1 <= responsible_new_id(list(multiset), s, p) <= s**p

    def test_shorter_multiset_padded(self):
        new_id = responsible_new_id([1], s=2, p=3)
        assignment = radix_assignment(new_id, 2, 3)
        assert 1 in assignment

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            responsible_new_id([], 2, 3)

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            responsible_new_id([0] * 5, 2, 3)

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_index_array_matches_scalar(self, s, p):
        """The sorted-digit lookup agrees with the scalar sort on
        unsorted rows with repeated digits, and leaves its input alone."""
        rng = np.random.default_rng(10 * s + p)
        rows = rng.integers(0, s, size=(300, p))
        rows[:100, -1] = rows[:100, 0]  # a repeat in every row of the block
        expected = [responsible_new_id(row, s, p) - 1 for row in rows.tolist()]
        for layout in (rows, np.asfortranarray(rows)):
            before = layout.copy()
            assert responsible_index_array(layout, s).tolist() == expected
            assert np.array_equal(layout, before)


class TestOwners:
    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_owners_are_their_own_responsible_index(self, s, p):
        digits = radix_digit_table(s, p)
        expected = np.flatnonzero(
            responsible_index_array(digits, s) == np.arange(s**p)
        )
        owners = owner_indices(s, p)
        assert owners.tolist() == expected.tolist()
        assert owners.size == math.comb(s + p - 1, p)

    @pytest.mark.parametrize("s,p", [(2, 3), (3, 3), (3, 4), (2, 5)])
    def test_rows_kept_iff_an_owned_clique_can_use_them(self, s, p):
        """Brute force over a random fan-out: a row survives iff its
        recipient owns a multiset and that multiset holds both of the
        edge's parts (twice, for an edge inside one part)."""
        rng = np.random.default_rng(s * 10 + p)
        n = 40
        part_arr = rng.integers(0, s, size=n)
        edges = rng.integers(0, n, size=(300, 2)).astype(np.uint32)
        recipients = pair_recipient_lists(s, p)
        pair = pair_index_array(part_arr[edges[:, 0]], part_arr[edges[:, 1]], s)
        dst = np.array([rng.choice(recipients[g]) for g in pair])
        owners, rows, rank = owner_rows(dst, edges, part_arr, s, p)
        assert owners.tolist() == owner_indices(s, p).tolist()
        digits = radix_digit_table(s, p)
        expected = []
        for i, (d, (u, v)) in enumerate(zip(dst.tolist(), edges.tolist())):
            held = list(digits[d])
            a, b = part_arr[u], part_arr[v]
            need = 2 if a == b else 1
            owns = held == sorted(held)
            if owns and held.count(a) >= need and held.count(b) >= 1:
                expected.append(i)
        assert rows.tolist() == expected
        assert owners[rank].tolist() == dst[rows].tolist()


class TestPairRecipientCount:
    @pytest.mark.parametrize("s,p", [(2, 3), (3, 4), (4, 4), (2, 6)])
    def test_matches_brute_force(self, s, p):
        tuples = list(itertools.product(range(s), repeat=p))
        for a in range(s):
            for b in range(a, s):
                brute = sum(1 for t in tuples if a in t and b in t)
                assert pair_recipient_count(s, p, a, b) == brute

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pair_recipient_count(2, 3, 0, 5)

    def test_paper_scaling(self):
        # recipients ≈ p² k^{1−2/p}: grows slower than k.
        p = 4
        small = pair_recipient_count(2, p, 0, 1)  # k = 16
        large = pair_recipient_count(4, p, 0, 1)  # k = 256
        assert large < 16 * small  # sublinear in k = s^p


class TestLemma27:
    def test_sampled_edges_within_bound(self):
        g = gnm_random_graph(300, 6000, seed=5)
        rng = np.random.default_rng(0)
        q = 0.3
        violations = 0
        for _ in range(20):
            _, induced = sample_induced_edges(g, q, rng)
            if induced > lemma_2_7_bound(g, q):
                violations += 1
        assert violations == 0

    def test_conditions_check(self):
        g = gnm_random_graph(300, 6000, seed=5)
        assert lemma_2_7_conditions(g, 0.5) in (True, False)
        # Tiny q violates q²m ≥ 400 log² n.
        assert not lemma_2_7_conditions(g, 0.001)

    def test_invalid_q(self):
        g = gnm_random_graph(10, 5, seed=1)
        with pytest.raises(ValueError):
            sample_induced_edges(g, 1.5, np.random.default_rng(0))

    def test_q_one_keeps_everything(self):
        g = gnm_random_graph(20, 40, seed=2)
        chosen, induced = sample_induced_edges(g, 1.0, np.random.default_rng(0))
        assert len(chosen) == 20 and induced == 40

    def test_q_zero_keeps_nothing(self):
        g = gnm_random_graph(20, 40, seed=2)
        chosen, induced = sample_induced_edges(g, 0.0, np.random.default_rng(0))
        assert not chosen and induced == 0
