"""Unit tests for the diffusion-kernel layer (:mod:`repro.cascade.kernels`).

The kernels' diffusion semantics on gadget graphs where the exact
activation/claim probabilities are known, the batched competitive sweep's
per-round bookkeeping, error parity with the python reference walks
(``tests/reference_kernels.py``), and the kernel metrics.  Statistical
equivalence with the reference walks lives in
``tests/test_kernel_equivalence.py``.
"""

import numpy as np
import pytest

from repro.cascade.competitive import ClaimRule, CompetitiveDiffusion, assign_initiators
from repro.cascade.ic import IndependentCascade
from repro.cascade.kernels import run_competitive_cascades
from repro.cascade.lt import LinearThreshold
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.errors import CascadeError, GraphError
from repro.graphs.digraph import DiGraph
from repro.obs.metrics import counter
from repro.utils.rng import as_rng
from tests import reference_kernels
from tests.reference_kernels import claim_group


def _sweep(graph, probs, initiators_per_round, claim_rule, generator, claims=None):
    """The batched kernel on per-round initiator lists, as one stream."""
    triples = [
        (i, v, j)
        for i, sets in enumerate(initiators_per_round)
        for j, nodes in enumerate(sets)
        for v in nodes
    ]
    rows, nodes, groups = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    r = len(initiators_per_round[0]) if initiators_per_round else 0
    return run_competitive_cascades(
        graph,
        probs,
        rows,
        nodes,
        groups,
        r,
        [(len(initiators_per_round), generator)],
        claim_rule,
        claims,
    )


class TestClaimGroup:
    def test_proportional_degenerate_weight_is_deterministic(self, rng):
        weights = np.array([0.0, 5.0, 0.0])
        for _ in range(20):
            assert claim_group(weights, ClaimRule.PROPORTIONAL, rng) == 1

    def test_winner_take_all_unique_max(self, rng):
        weights = np.array([1.0, 3.0, 2.0])
        for _ in range(20):
            assert claim_group(weights, ClaimRule.WINNER_TAKE_ALL, rng) == 1

    def test_winner_take_all_tie_stays_inside_tied_set(self):
        rng = as_rng(31)
        weights = np.array([2.0, 1.0, 2.0])
        picks = {claim_group(weights, ClaimRule.WINNER_TAKE_ALL, rng) for _ in range(200)}
        assert picks == {0, 2}


class TestEdgeIds:
    def test_aligned_with_out_indices(self, karate):
        for u in range(karate.num_nodes):
            lo, hi = karate.out_indptr[u], karate.out_indptr[u + 1]
            np.testing.assert_array_equal(
                karate.edge_ids[lo:hi], karate.out_edge_ids(u)
            )

    def test_read_only(self, karate):
        with pytest.raises(ValueError):
            karate.edge_ids[0] = 99


class TestNumpyCompetitiveCascade:
    def test_p_zero_only_initiators_active(self, karate):
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(0.0)
        )
        outcome = engine.run([[0, 1], [2, 3]], rng=7)
        assert outcome.total_activated == 4
        assert outcome.rounds == 1  # one empty attempt round, then quiescence

    def test_p_one_claims_every_node(self, karate):
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(1.0)
        )
        outcome = engine.run([[0], [33]], rng=8)
        assert outcome.total_activated == karate.num_nodes

    def test_ownership_partitions_active_nodes(self, karate):
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(0.3)
        )
        for seed in range(10):
            outcome = engine.run([[0, 1], [33, 32]], rng=seed)
            assert outcome.spreads().sum() == outcome.total_activated

    def test_activation_probability_matches_formula(self):
        # Node 2 has two attacking in-edges: P(activation) = 1 - (1-p)^2.
        graph = DiGraph(3, [(0, 2), (1, 2)])
        p = 0.4
        engine = CompetitiveDiffusion(graph, IndependentCascade(p))
        rng = as_rng(32)
        n = 4000
        activations = sum(
            engine.run([[0], [1]], rng).owner[2] >= 0 for _ in range(n)
        )
        assert activations / n == pytest.approx(1 - (1 - p) ** 2, rel=0.07)

    def test_claim_proportional_to_attacker_count(self):
        # Two attackers for group 0, one for group 1: claims split 2/3 vs 1/3.
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        engine = CompetitiveDiffusion(
            graph, IndependentCascade(0.9)
        )
        rng = as_rng(33)
        claims = np.zeros(2)
        for _ in range(3000):
            outcome = engine.run([[0, 1], [2]], rng)
            if outcome.owner[3] >= 0:
                claims[outcome.owner[3]] += 1
        assert claims[0] / claims.sum() == pytest.approx(2 / 3, abs=0.04)

    def test_winner_take_all_majority_and_tie(self):
        graph = DiGraph(4, [(0, 3), (1, 3), (2, 3)])
        engine = CompetitiveDiffusion(
            graph,
            IndependentCascade(1.0),
            claim_rule=ClaimRule.WINNER_TAKE_ALL,
        )
        rng = as_rng(34)
        for _ in range(100):
            assert engine.run([[0, 1], [2]], rng).owner[3] == 0
        claims = np.zeros(3)
        for _ in range(3000):
            claims[engine.run([[0], [1], [2]], rng).owner[3]] += 1
        for share in claims / claims.sum():
            assert share == pytest.approx(1 / 3, abs=0.04)

    def test_activation_rounds_recorded(self, path_graph):
        engine = CompetitiveDiffusion(
            path_graph, IndependentCascade(1.0)
        )
        outcome = engine.run([[0]], rng=9)
        assert outcome.activation_round.tolist() == [0, 1, 2, 3, 4]
        assert outcome.rounds == 5  # 4 claiming rounds + 1 empty final round

    def test_lt_gadget_splits_fairly(self):
        graph = DiGraph(3, [(0, 2), (1, 2)])
        engine = CompetitiveDiffusion(graph, LinearThreshold())
        rng = as_rng(35)
        claims = np.zeros(2)
        for _ in range(2000):
            outcome = engine.run([[0], [1]], rng)
            if outcome.owner[2] >= 0:
                claims[outcome.owner[2]] += 1
        assert claims.sum() == 2000  # threshold <= 1 always crossed
        assert claims[0] / claims.sum() == pytest.approx(0.5, abs=0.05)

    def test_deterministic_for_fixed_seed(self, karate):
        engine = CompetitiveDiffusion(
            karate, IndependentCascade(0.2)
        )
        a = engine.run([[0, 1], [33, 32]], rng=42)
        b = engine.run([[0, 1], [33, 32]], rng=42)
        np.testing.assert_array_equal(a.owner, b.owner)
        assert a.rounds == b.rounds


def _active(graph, model, seeds, rng):
    """One single-group diffusion's active-node mask: the one-group sweep."""
    return CompetitiveDiffusion(graph, model).run([seeds], rng).owner >= 0


class TestNumpySingleGroup:
    """A classical spread is the one-group run of the competitive kernels."""

    def test_seed_out_of_range_matches_python_error(self, karate, rng):
        model = IndependentCascade(0.1)
        with pytest.raises(CascadeError, match=r"seed 99 out of range"):
            _active(karate, model, [0, 99], rng)
        with pytest.raises(CascadeError, match=r"seed 99 out of range"):
            reference_kernels.simulate_cascade(
                karate, model.edge_probabilities(karate), [0, 99], rng
            )
        with pytest.raises(CascadeError, match=r"seed -1 out of range"):
            _active(karate, LinearThreshold(), [-1], rng)
        with pytest.raises(CascadeError, match=r"seed -1 out of range"):
            reference_kernels.simulate_threshold(karate, [-1], rng)

    def test_p_zero_only_seeds(self, karate, rng):
        active = _active(karate, IndependentCascade(0.0), [0, 5], rng)
        assert sorted(np.flatnonzero(active)) == [0, 5]

    def test_p_one_reaches_everything_reachable(self, path_graph, rng):
        active = _active(path_graph, IndependentCascade(1.0), [1], rng)
        assert sorted(np.flatnonzero(active)) == [1, 2, 3, 4]

    def test_duplicate_seeds_collapse(self, karate, rng):
        active = _active(karate, IndependentCascade(0.0), [3, 3, 3], rng)
        assert active.sum() == 1

    def test_lt_path_wave_is_deterministic(self, path_graph, rng):
        # Every path node has a single in-neighbour of weight 1, so the wave
        # from node 0 claims everything regardless of thresholds.
        assert _active(path_graph, LinearThreshold(), [0], rng).all()

    def test_lt_one_group_draws_thresholds_only(self, karate):
        # With one group no claim is drawn: a diffusion advances the
        # generator by exactly the n thresholds, as classical LT does.
        rng, thresholds = as_rng(12), as_rng(12)
        CompetitiveDiffusion(karate, LinearThreshold()).run([[0, 33]], rng)
        thresholds.random(karate.num_nodes)
        assert rng.random() == thresholds.random()


class TestNumpyReachability:
    """The numpy reach DP of a one-mask oracle against the python walk."""

    def test_bad_source_raises_graph_error(self, karate):
        mask = np.ones(karate.num_edges, dtype=bool)
        with pytest.raises(GraphError, match="out of range"):
            SnapshotOracle(karate, [mask]).reach([999])

    def test_matches_python_sweep(self, random_graph, rng):
        mask = rng.random(random_graph.num_edges) < 0.5
        oracle = SnapshotOracle(random_graph, [mask])
        for source in range(0, random_graph.num_nodes, 7):
            np.testing.assert_array_equal(
                random_graph.reachable_from([source], mask),
                oracle.reach([source])[0],
            )

    def test_oracle_results_are_kernel_independent(self, random_graph):
        # The sweeps draw no randomness, so oracle numbers must *exactly*
        # equal the python reference walk, not merely come close.
        masks = sample_snapshots(random_graph, IndependentCascade(0.2), 8, rng=3)
        oracle = SnapshotOracle(random_graph, masks)
        seeds = [0, 9, 17]
        walks = [random_graph.reachable_from(seeds, mask) for mask in masks]
        assert oracle.spread(seeds) == sum(int(w.sum()) for w in walks) / len(masks)
        reached = oracle.reach(seeds)
        for row, walk in zip(reached, walks):
            np.testing.assert_array_equal(row, walk)
        for candidate in (3, 25, 40):
            expected = sum(
                int((random_graph.reachable_from([candidate], mask) & ~walk).sum())
                for mask, walk in zip(masks, walks)
            )
            assert oracle.marginal_gain(candidate, reached) == expected / len(masks)
        oracle.extend_reach(reached, 25)
        for row, mask in zip(reached, masks):
            np.testing.assert_array_equal(
                row, random_graph.reachable_from([*seeds, 25], mask)
            )


class TestBatchedCompetitiveCascades:
    def test_one_round_matches_engine_outcome(self, karate):
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.3))
        outcome = engine.run([[0, 1], [33, 32]], rng=5)
        probs = IndependentCascade(0.3).edge_probabilities(karate)
        gen = as_rng(5)
        initiators = assign_initiators(karate.num_nodes, [[0, 1], [33, 32]], rng=gen)
        spreads, steps = _sweep(
            karate, probs, [initiators], ClaimRule.PROPORTIONAL, gen
        )
        np.testing.assert_array_equal(spreads[0], outcome.spreads())
        assert steps.tolist() == [outcome.rounds]

    def test_rounds_are_independent_simulations(self, path_graph):
        # p = 1 on a path: every round claims the whole tail of its seed.
        probs = np.ones(path_graph.num_edges)
        initiators = [[[0], []], [[], [2]], [[4], [1]]]
        spreads, steps = _sweep(
            path_graph, probs, initiators, ClaimRule.PROPORTIONAL, as_rng(1)
        )
        assert spreads.tolist() == [[5, 0], [0, 3], [1, 3]]
        # steps = claiming steps + 1 empty final step
        assert steps.tolist() == [5, 3, 3]

    def test_claims_record_every_wave(self, path_graph):
        probs = np.ones(path_graph.num_edges)
        claims: list[tuple[np.ndarray, np.ndarray]] = []
        _sweep(
            path_graph, probs, [[[0]], [[3]]], ClaimRule.PROPORTIONAL, as_rng(2), claims
        )
        n = path_graph.num_nodes
        waves = [sorted(keys.tolist()) for keys, _ in claims]
        assert waves == [[0, n + 3], [1, n + 4], [2], [3], [4]]
        assert all((groups == 0).all() for _, groups in claims)

    def test_no_rounds(self, karate):
        probs = np.full(karate.num_edges, 0.5)
        spreads, steps = _sweep(
            karate, probs, [], ClaimRule.PROPORTIONAL, as_rng(3)
        )
        assert spreads.shape == (0, 0) and steps.shape == (0,)

    def test_initiator_out_of_range(self, karate):
        probs = np.full(karate.num_edges, 0.5)
        with pytest.raises(CascadeError, match="initiator 99 out of range"):
            _sweep(
                karate, probs, [[[0], [99]]], ClaimRule.PROPORTIONAL, as_rng(4)
            )
        # A node past n in an early row is not read as a node of a later row.
        n = karate.num_nodes
        with pytest.raises(CascadeError, match=f"initiator {n + 1} out of range"):
            _sweep(
                karate, probs, [[[0], [n + 1]], [[2], [3]]], ClaimRule.PROPORTIONAL, as_rng(4)
            )
        with pytest.raises(CascadeError, match="initiator -1 out of range"):
            _sweep(karate, probs, [[[1], [-1]], [[2], [3]]], ClaimRule.PROPORTIONAL, as_rng(4))
        with pytest.raises(CascadeError, match="initiator row 2 out of range"):
            run_competitive_cascades(
                karate,
                probs,
                np.array([0, 2]),
                np.array([0, 1]),
                np.array([0, 1]),
                2,
                [(2, as_rng(4))],
                ClaimRule.PROPORTIONAL,
            )

    def test_claimed_state_is_a_bitset(self, karate, monkeypatch):
        # rounds * n bits, packed: never a (rounds, n) byte array.
        from repro.cascade import kernels

        sizes = []
        real = kernels.packed_zeros

        def spy(num_bits):
            sizes.append(num_bits)
            return real(num_bits)

        monkeypatch.setattr(kernels, "packed_zeros", spy)
        probs = np.full(karate.num_edges, 0.2)
        _sweep(
            karate, probs, [[[0], [33]]] * 7, ClaimRule.PROPORTIONAL, as_rng(5)
        )
        assert sizes == [7 * karate.num_nodes]


class TestChunkedWaves:
    """A wave split into chunks of whole streams gives the one-pass result."""

    def test_chunks_change_no_result(self, monkeypatch):
        from repro.cascade import kernels
        from repro.cascade.wc import WeightedCascade
        from repro.graphs.generators import erdos_renyi

        engine = CompetitiveDiffusion(erdos_renyi(80, 400, rng=11), WeightedCascade())

        def streams():
            return [
                (engine.incidence([[0, 1], [2, 3]]), 30, as_rng(1)),
                (engine.incidence([[4], [4, 5]]), 20, as_rng(2)),
                (engine.incidence([[6, 7], [8]]), 25, as_rng(3)),
            ]

        chunks = []
        real = kernels._wave

        def spy(*args):
            chunks.append(args[2].size)
            return real(*args)

        monkeypatch.setattr(kernels, "_wave", spy)
        whole = engine.sweep(streams())
        one_pass = len(chunks)
        # A one-attempt limit: every stream of every wave is its own chunk.
        monkeypatch.setattr(kernels, "out_csr_bytes", lambda graph: 8)
        chunked = engine.sweep(streams())
        np.testing.assert_array_equal(whole, chunked)
        assert len(chunks) - one_pass > one_pass


def _stable_groups(targets):
    """The definition ``_segments`` must meet: stable argsort plus run heads."""
    order = np.argsort(targets, kind="stable")
    ordered = targets[order]
    heads = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]][: ordered.size])
    return order, heads, ordered[heads]


class TestSegments:
    """The packed-key grouping equals a stable argsort element for element."""

    @staticmethod
    def _check(targets, base, span):
        from repro.cascade.kernels import _segments

        got = _segments(targets, base, span)
        for actual, expected in zip(got, _stable_groups(targets)):
            assert actual.dtype == np.int64
            np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("size,span", [(7, 3), (500, 40), (20_000, 1_000), (4_096, 10**9)])
    def test_random_keys_with_duplicates(self, size, span):
        generator = as_rng(size)
        base = int(generator.integers(0, 10**6))
        self._check(generator.integers(base, base + span, size), base, span)

    def test_empty_frontier(self):
        self._check(np.empty(0, dtype=np.int64), 0, 1)

    def test_single_attempt(self):
        self._check(np.array([41], dtype=np.int64), 40, 5)

    def test_span_at_packing_limit(self):
        # 1,000 attempts take 10 bits; a span of 2**53 fills the other 53.
        size, span = 1_000, 2**53
        targets = as_rng(3).integers(0, span, size)
        targets[:4] = [0, span - 1, span - 1, 0]
        targets[500:600] = targets[:100]
        self._check(targets + 5, 5, span)

    @pytest.mark.parametrize(
        "span", [2**53 + 1, 2**62, 2**63 - 1], ids=["limit+1", "2^62", "int64"]
    )
    def test_over_width_span(self, span):
        # One bit past the limit up to the whole int64 range: digit passes.
        size = 1_000
        base = -(2**62)
        targets = as_rng(4).integers(0, span, size) + base
        targets[:3] = [base, base + span - 1, base]
        targets[700:900] = targets[:200]
        self._check(targets, base, span)


class TestHeterogeneousSweepPin:
    """Per-edge probabilities make each target's survival factors visible.

    IC and WC give every in-edge of a target the same probability, so a
    grouping that handed a target the right number of attempts but other
    edges' ``(1 - p_e)`` factors, or multiplied them in another order,
    would leave their results equal.  Random per-edge probabilities do
    not: this sweep's digest, computed with the stable-argsort grouping,
    pins the grouping whole and chunked.
    """

    DIGEST = "2c5feb5953dafd15414cb10ac8618000307c0509f527d5066d0ade7b0e13df93"

    @staticmethod
    def _sweep(claim_rule):
        from repro.graphs.generators import erdos_renyi

        graph = erdos_renyi(200, 1400, rng=7)
        probs = as_rng(8).uniform(0.0, 0.3, graph.num_edges)
        setup = as_rng(9)
        row_counts = [12, 7, 15, 10]
        rows, nodes, groups = [], [], []
        for row in range(sum(row_counts)):
            picks = setup.choice(graph.num_nodes, size=6, replace=False)
            rows.extend([row] * 6)
            nodes.extend(picks.tolist())
            groups.extend([0, 0, 1, 1, 2, 2])
        streams = [(count, as_rng(100 + s)) for s, count in enumerate(row_counts)]
        return run_competitive_cascades(
            graph, probs, np.array(rows), np.array(nodes), np.array(groups), 3,
            streams, claim_rule,
        )

    def _digest(self):
        import hashlib

        digest = hashlib.sha256()
        for rule in ClaimRule:
            spreads, steps = self._sweep(rule)
            digest.update(np.ascontiguousarray(spreads, dtype="<i8").tobytes())
            digest.update(np.ascontiguousarray(steps, dtype="<i8").tobytes())
        return digest.hexdigest()

    def test_whole_sweep_digest(self):
        assert self._digest() == self.DIGEST

    def test_one_attempt_chunks_digest(self, monkeypatch):
        from repro.cascade import kernels

        monkeypatch.setattr(kernels, "out_csr_bytes", lambda graph: 8)
        assert self._digest() == self.DIGEST


class TestKernelInstrumentation:
    def test_simulation_counter_records_kernel(self, karate):
        handle = counter("cascade.simulations")
        before = handle.value
        engine = CompetitiveDiffusion(karate, IndependentCascade(0.1))
        engine.run([[0], [33]], rng=1)
        assert handle.value == before + 1
        engine.spreads([[0], [33]], 6, rng=1)
        assert handle.value == before + 7
