"""Tests for the competitive diffusion engine (Section 3.2 semantics)."""

import numpy as np
import pytest

from repro.cascade.competitive import (
    ClaimRule,
    CompetitiveDiffusion,
    CompetitiveOutcome,
    SeedIncidence,
    TieBreakRule,
    assign_initiators,
)
from repro.cascade.ic import IndependentCascade
from repro.cascade.lt import LinearThreshold
from repro.cascade.wc import WeightedCascade
from repro.errors import CascadeError
from repro.graphs.digraph import DiGraph
from repro.utils.rng import as_rng
from tests import reference_kernels


class TestAssignInitiators:
    def test_disjoint_partition_of_union(self, karate, rng):
        seed_sets = [[0, 1, 2, 3], [2, 3, 4, 5], [3, 5, 6, 7]]
        initiators = assign_initiators(karate.num_nodes, seed_sets, rng=rng)
        flat = [v for group in initiators for v in group]
        assert len(flat) == len(set(flat))
        assert set(flat) == {0, 1, 2, 3, 4, 5, 6, 7}

    def test_exclusive_seeds_kept(self, karate, rng):
        initiators = assign_initiators(karate.num_nodes, [[0, 1], [2, 3]], rng=rng)
        assert sorted(initiators[0]) == [0, 1]
        assert sorted(initiators[1]) == [2, 3]

    def test_contested_seed_goes_to_exactly_one(self, karate, rng):
        initiators = assign_initiators(karate.num_nodes, [[0], [0]], rng=rng)
        sizes = sorted(len(group) for group in initiators)
        assert sizes == [0, 1]

    def test_uniform_tiebreak_is_fair(self, karate):
        rng = as_rng(0)
        wins = np.zeros(2)
        for _ in range(2000):
            initiators = assign_initiators(
                karate.num_nodes, [[0], [0]], TieBreakRule.UNIFORM, rng
            )
            wins[0 if initiators[0] else 1] += 1
        assert wins[0] / wins.sum() == pytest.approx(0.5, abs=0.05)

    def test_proportional_tiebreak_favours_bigger_exclusive_share(self, karate):
        rng = as_rng(1)
        wins = np.zeros(2)
        # Group 0 has 3 exclusive seeds, group 1 has 1; node 9 is contested.
        for _ in range(2000):
            initiators = assign_initiators(
                karate.num_nodes,
                [[0, 1, 2, 9], [5, 9]],
                TieBreakRule.PROPORTIONAL,
                rng,
            )
            wins[0 if 9 in initiators[0] else 1] += 1
        assert wins[0] / wins.sum() == pytest.approx(0.75, abs=0.05)

    def test_proportional_falls_back_to_uniform_without_exclusives(self, karate):
        rng = as_rng(2)
        wins = np.zeros(2)
        for _ in range(1000):
            initiators = assign_initiators(
                karate.num_nodes, [[4], [4]], TieBreakRule.PROPORTIONAL, rng
            )
            wins[0 if initiators[0] else 1] += 1
        assert wins[0] / wins.sum() == pytest.approx(0.5, abs=0.07)

    def test_proportional_fallback_ignores_third_party_exclusives(self, karate):
        # Groups 0 and 1 contest node 4 and hold no exclusive seeds of their
        # own; group 2 owns an exclusive seed but is not contesting.  The
        # proportional weights over the *selecting* groups are all zero, so
        # the tie must fall back to a uniform draw between groups 0 and 1 —
        # and never leak node 4 to group 2.
        rng = as_rng(22)
        wins = np.zeros(3)
        for _ in range(1000):
            initiators = assign_initiators(
                karate.num_nodes, [[4], [4], [7]], TieBreakRule.PROPORTIONAL, rng
            )
            assert 4 not in initiators[2]
            wins[0 if 4 in initiators[0] else 1] += 1
        assert wins[2] == 0
        assert wins[0] / wins[:2].sum() == pytest.approx(0.5, abs=0.05)

    def test_duplicate_seeds_within_group_ignored(self, karate, rng):
        initiators = assign_initiators(karate.num_nodes, [[0, 0, 1]], rng=rng)
        assert sorted(initiators[0]) == [0, 1]

    def test_out_of_range_seed_rejected(self, karate, rng):
        with pytest.raises(CascadeError, match="out of range"):
            assign_initiators(karate.num_nodes, [[999]], rng=rng)

    def test_empty_input(self, karate, rng):
        assert assign_initiators(karate.num_nodes, [], rng=rng) == []

    def test_expected_initiator_size_at_most_k(self, karate):
        # Pigeonhole bound from Section 3.2: E|A0_i| <= k.
        rng = as_rng(3)
        k = 4
        sizes = np.zeros(2)
        for _ in range(500):
            initiators = assign_initiators(
                karate.num_nodes, [[0, 1, 2, 3], [2, 3, 4, 5]], rng=rng
            )
            sizes += [len(initiators[0]), len(initiators[1])]
        sizes /= 500
        assert sizes[0] <= k + 1e-9
        assert sizes[1] <= k + 1e-9


class TestCompetitiveOutcome:
    def test_spreads_and_total(self):
        owner = np.array([0, 0, 1, -1, 1, 1])
        outcome = CompetitiveOutcome(owner=owner, initiators=[[0], [2]], rounds=2)
        assert outcome.spread(0) == 2
        assert outcome.spread(1) == 3
        assert outcome.total_activated == 5
        assert outcome.num_groups == 2

    def test_spreads_cached_consistent(self):
        owner = np.array([0, -1])
        outcome = CompetitiveOutcome(owner=owner, initiators=[[0]], rounds=1)
        assert outcome.spreads().tolist() == [1]
        assert outcome.spreads().tolist() == [1]


class TestCascadePath:
    def test_requires_seed_sets(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.1))
        with pytest.raises(CascadeError, match="at least one"):
            engine.run([])

    def test_ownership_partitions_active_nodes(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.3))
        outcome = engine.run([[0, 1], [33, 32]], rng=5)
        assert outcome.spreads().sum() == outcome.total_activated

    def test_initiators_owned_by_their_group(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.2))
        outcome = engine.run([[0], [33]], rng=6)
        for j, group in enumerate(outcome.initiators):
            for v in group:
                assert outcome.owner[v] == j

    def test_p_zero_only_initiators_active(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.0))
        outcome = engine.run([[0, 1], [2, 3]], rng=7)
        assert outcome.total_activated == 4
        assert outcome.rounds == 1  # one empty attempt round, then quiescence

    def test_p_one_claims_every_reachable_node(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(1.0))
        outcome = engine.run([[0], [33]], rng=8)
        # Karate is connected (symmetrized), so everything is claimed.
        assert outcome.total_activated == karate.num_nodes

    def test_single_group_matches_classic_ic_mean(self, karate):
        model = IndependentCascade(0.2)
        engine = CompetitiveDiffusion(karate, model)
        rng = as_rng(9)
        competitive = np.mean(
            [engine.run([[0, 33]], rng).spread(0) for _ in range(400)]
        )
        probs = model.edge_probabilities(karate)
        classic = np.mean(
            [
                reference_kernels.simulate_cascade(karate, probs, [0, 33], rng).sum()
                for _ in range(400)
            ]
        )
        assert competitive == pytest.approx(classic, rel=0.08)

    def test_total_activation_probability_matches_formula(self):
        # Node 2 has two in-edges; with both groups attacking via one edge
        # each, P(activation) = 1 - (1-p)^2 and the claim splits 50/50.
        graph = DiGraph(3, [(0, 2), (1, 2)])
        p = 0.4
        engine = CompetitiveDiffusion(graph, IndependentCascade(p))
        rng = as_rng(10)
        activations = 0
        claims = np.zeros(2)
        n = 4000
        for _ in range(n):
            outcome = engine.run([[0], [1]], rng)
            if outcome.owner[2] >= 0:
                activations += 1
                claims[outcome.owner[2]] += 1
        expected = 1 - (1 - p) ** 2
        assert activations / n == pytest.approx(expected, rel=0.07)
        assert claims[0] / claims.sum() == pytest.approx(0.5, abs=0.05)

    def test_claim_proportional_to_attacker_count(self):
        # Group 0 attacks node 3 through two fresh nodes, group 1 through
        # one: claim probability should be 2/3 vs 1/3 conditional on
        # activation (paper's t_j / sum t_j rule).
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        engine = CompetitiveDiffusion(graph, IndependentCascade(0.9))
        rng = as_rng(11)
        claims = np.zeros(2)
        for _ in range(3000):
            outcome = engine.run([[0, 1], [2]], rng)
            if outcome.owner[3] >= 0:
                claims[outcome.owner[3]] += 1
        assert claims[0] / claims.sum() == pytest.approx(2 / 3, abs=0.04)

    def test_winner_take_all_majority_always_wins(self):
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        engine = CompetitiveDiffusion(
            graph, IndependentCascade(1.0), claim_rule=ClaimRule.WINNER_TAKE_ALL
        )
        rng = as_rng(12)
        for _ in range(100):
            outcome = engine.run([[0, 1], [2]], rng)
            assert outcome.owner[3] == 0

    def test_winner_take_all_ties_split(self):
        graph = DiGraph(3, [(0, 2), (1, 2)])
        engine = CompetitiveDiffusion(
            graph, IndependentCascade(1.0), claim_rule=ClaimRule.WINNER_TAKE_ALL
        )
        rng = as_rng(13)
        claims = np.zeros(2)
        for _ in range(2000):
            outcome = engine.run([[0], [1]], rng)
            claims[outcome.owner[2]] += 1
        assert claims[0] / claims.sum() == pytest.approx(0.5, abs=0.05)

    def test_winner_take_all_three_way_tie_uniform(self):
        # Three groups attack node 3 with one attempt each: a three-way tie
        # on the maximum attempt count, broken uniformly at random.
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        engine = CompetitiveDiffusion(
            graph, IndependentCascade(1.0), claim_rule=ClaimRule.WINNER_TAKE_ALL
        )
        rng = as_rng(23)
        claims = np.zeros(3)
        n = 3000
        for _ in range(n):
            outcome = engine.run([[0], [1], [2]], rng)
            claims[outcome.owner[3]] += 1
        assert claims.sum() == n  # p=1: node 3 always activates
        for share in claims / n:
            assert share == pytest.approx(1 / 3, abs=0.04)

    def test_claimed_nodes_never_switch(self, karate):
        # Once owner[v] >= 0 the engine must not reassign it; verified by
        # the partition property over many runs with heavy competition.
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.5))
        rng = as_rng(14)
        for _ in range(50):
            outcome = engine.run([[0, 1, 2], [33, 32, 31]], rng)
            assert outcome.spreads().sum() == outcome.total_activated

    def test_three_groups(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.3))
        outcome = engine.run([[0], [33], [16]], rng=15)
        assert outcome.num_groups == 3
        assert outcome.spreads().shape == (3,)
        assert outcome.spreads().sum() == outcome.total_activated

    def test_works_under_wc(self, karate):
        engine = CompetitiveDiffusion(karate, WeightedCascade())
        outcome = engine.run([[0], [33]], rng=16)
        assert outcome.total_activated >= 2


class TestThresholdPath:
    def test_lt_dispatches_to_threshold_engine(self, karate):
        engine = CompetitiveDiffusion(karate, LinearThreshold())
        outcome = engine.run([[0, 1], [33, 32]], rng=17)
        assert outcome.spreads().sum() == outcome.total_activated
        assert outcome.total_activated >= 4

    def test_lt_initiators_owned(self, karate):
        engine = CompetitiveDiffusion(karate, LinearThreshold())
        outcome = engine.run([[0], [33]], rng=18)
        for j, group in enumerate(outcome.initiators):
            for v in group:
                assert outcome.owner[v] == j

    def test_lt_path_graph_fully_claimed(self, path_graph):
        # Path nodes have a single in-neighbour of weight 1: the wave from
        # node 0 deterministically claims everything.
        engine = CompetitiveDiffusion(path_graph, LinearThreshold())
        outcome = engine.run([[0]], rng=19)
        assert outcome.spread(0) == 5

    def test_lt_single_group_matches_classic_mean(self, karate):
        # LT's only randomness is the thresholds, drawn up front, and one
        # group draws no claims: for the same generator the one-group run
        # and the classical LT walk activate the same nodes, every time.
        engine = CompetitiveDiffusion(karate, LinearThreshold())
        rng, classic_rng = as_rng(20), as_rng(20)
        competitive = [engine.run([[0, 33]], rng).spread(0) for _ in range(300)]
        classic = [
            int(reference_kernels.simulate_threshold(karate, [0, 33], classic_rng).sum())
            for _ in range(300)
        ]
        assert competitive == classic

    def test_lt_competition_splits_fairly_on_symmetric_gadget(self):
        # Node 2 has in-edges from 0 and 1 (weight 1/2 each); when both are
        # seeds, v activates iff threshold <= 1 (always, in the second
        # round) and each group's claim share is 1/2.
        graph = DiGraph(3, [(0, 2), (1, 2)])
        engine = CompetitiveDiffusion(graph, LinearThreshold())
        rng = as_rng(21)
        claims = np.zeros(2)
        for _ in range(2000):
            outcome = engine.run([[0], [1]], rng)
            if outcome.owner[2] >= 0:
                claims[outcome.owner[2]] += 1
        assert claims.sum() == 2000  # threshold <= 1 always crossed
        assert claims[0] / claims.sum() == pytest.approx(0.5, abs=0.05)


class TestArrayInitiatorsMatchReference:
    """The array draw (:class:`SeedIncidence`) against the dict-walk oracle."""

    ROUNDS = 4000

    def _array_frequencies(self, seed_sets, tie_break, seed):
        """How often each (seed, group) pair initiates, over one array draw."""
        _, nodes, groups = SeedIncidence(34, seed_sets, tie_break).draw(self.ROUNDS, as_rng(seed))
        pairs, counts = np.unique(np.stack([nodes, groups]), axis=1, return_counts=True)
        return {(int(v), int(g)): c / self.ROUNDS for (v, g), c in zip(pairs.T, counts)}

    def _reference_frequencies(self, seed_sets, tie_break, seed):
        rng = as_rng(seed)
        wins: dict[tuple[int, int], float] = {}
        for _ in range(self.ROUNDS):
            for g, nodes in enumerate(
                reference_kernels.assign_initiators(34, seed_sets, tie_break, rng)
            ):
                for v in nodes:
                    wins[(v, g)] = wins.get((v, g), 0.0) + 1.0 / self.ROUNDS
        return wins

    def _assert_frequencies_match(self, seed_sets, tie_break):
        array = self._array_frequencies(seed_sets, tie_break, 5)
        reference = self._reference_frequencies(seed_sets, tie_break, 6)
        assert set(array) == set(reference)
        for pair, p in reference.items():
            # Two independent binomial frequencies: 4.5 pooled standard errors.
            bound = 4.5 * np.sqrt(2 * p * (1 - p) / self.ROUNDS) + 1e-12
            assert abs(array[pair] - p) <= bound, (pair, array[pair], p)
        return array

    @pytest.mark.parametrize("tie_break", list(TieBreakRule), ids=lambda t: t.value)
    def test_exclusive_seeds_always_win(self, tie_break):
        array = self._assert_frequencies_match([[0, 1, 2, 9], [5, 9]], tie_break)
        for pair in [(0, 0), (1, 0), (2, 0), (5, 1)]:
            assert array[pair] == 1.0

    def test_uniform_three_way_contest(self):
        array = self._assert_frequencies_match([[4, 1], [4, 2], [4]], TieBreakRule.UNIFORM)
        for group in range(3):
            assert array[(4, group)] == pytest.approx(1 / 3, abs=0.03)

    def test_proportional_weights(self):
        # Exclusive counts 2, 1, 3: the contested seed 9 goes 2:1:3.
        array = self._assert_frequencies_match(
            [[0, 1, 9], [2, 9], [9, 3, 4, 5]], TieBreakRule.PROPORTIONAL
        )
        for group, share in enumerate([2 / 6, 1 / 6, 3 / 6]):
            assert array[(9, group)] == pytest.approx(share, abs=0.03)

    def test_proportional_zero_weight_never_wins(self):
        # Group 1 holds no exclusive seed, so group 0 takes seed 4 every round.
        array = self._assert_frequencies_match([[4, 1], [4]], TieBreakRule.PROPORTIONAL)
        assert array == {(1, 0): 1.0, (4, 0): 1.0}

    def test_proportional_all_zero_weights_fall_back_to_uniform(self):
        array = self._assert_frequencies_match([[4], [4], [7]], TieBreakRule.PROPORTIONAL)
        assert (4, 2) not in array
        assert array[(4, 0)] == pytest.approx(0.5, abs=0.03)

    @pytest.mark.parametrize("tie_break", list(TieBreakRule), ids=lambda t: t.value)
    def test_duplicate_seeds_within_a_group_count_once(self, tie_break):
        array = self._assert_frequencies_match([[0, 0, 1], [1, 1, 3]], tie_break)
        assert array[(1, 0)] == pytest.approx(0.5, abs=0.03)

    @pytest.mark.parametrize("bad", [34, 99, -1])
    def test_out_of_range_seed_rejected_like_reference(self, bad):
        with pytest.raises(CascadeError, match="out of range"):
            SeedIncidence(34, [[0], [bad]])
        with pytest.raises(CascadeError, match="out of range"):
            reference_kernels.assign_initiators(34, [[0], [bad]], TieBreakRule.UNIFORM, as_rng(0))

    def test_draw_is_one_array_per_call(self):
        incidence = SeedIncidence(34, [[0, 1, 2], [1, 2, 3]])
        rows, nodes, groups = incidence.draw(5, as_rng(1))
        assert rows.shape == nodes.shape == groups.shape == (5 * 4,)
        # Row i holds simulation i's initiators: each seed exactly once.
        for row in range(5):
            assert sorted(nodes[rows == row].tolist()) == [0, 1, 2, 3]
