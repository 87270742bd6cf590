import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab.gradcheck import loss_grad_check
from lexlab.objectives import (
    CandidateSet,
    combined_loss,
    contrastive_loss,
    filter_false_negatives,
    flops_penalty,
    kl_divergence_loss,
    listnet_loss,
    make_rank_pairs,
    margin_mse_loss,
    rank_consistent_loss,
)


def cands(scores, teacher=None):
    scores = np.asarray(scores, dtype=float)
    return CandidateSet(
        qid="q",
        pos_pid="p+",
        neg_pids=[f"n{i}" for i in range(len(scores) - 1)],
        scores=scores,
        teacher_scores=None if teacher is None else np.asarray(teacher, dtype=float),
    )


class TestContrastive:
    def test_uniform_scores_log_n(self):
        lv = contrastive_loss(cands([1.0, 1.0, 1.0, 1.0]))
        assert lv.loss == pytest.approx(math.log(4), abs=1e-12)

    def test_dominant_positive_loss_to_zero(self):
        lv = contrastive_loss(cands([60.0, 0.0, 0.0]))
        assert lv.loss < 1e-20

    def test_gradient_sums_to_zero_and_matches_fd(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            scores = rng.normal(size=5)
            lv = contrastive_loss(cands(scores))
            assert abs(lv.grad.sum()) < 1e-12
        for seed in range(10):
            assert loss_grad_check("contrastive", seed) < 1e-6

    def test_shift_invariance(self):
        base = cands([0.5, -0.2, 1.1])
        shifted = cands([100.5, 99.8, 101.1])
        assert contrastive_loss(base).loss == pytest.approx(
            contrastive_loss(shifted).loss, abs=1e-12
        )

    def test_requires_negative(self):
        with pytest.raises(ValueError):
            contrastive_loss(cands([1.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(cands([1.0, float("nan")]))

    def test_positive_among_negatives_rejected(self):
        with pytest.raises(ValueError):
            CandidateSet(qid="q", pos_pid="n0", neg_pids=["n0"], scores=np.zeros(2))


class TestRankPairs:
    def test_all_ties_give_empty_set(self):
        pairs = make_rank_pairs(cands([0, 0, 0], teacher=[2, 2, 2]))
        assert len(pairs) == 0

    def test_three_distinct_scores_give_three_pairs(self):
        pairs = make_rank_pairs(cands([0, 0, 0], teacher=[3, 1, 2]))
        assert len(pairs) == 3
        assert ("p+", "n0") in pairs.pairs and ("n1", "n0") in pairs.pairs

    def test_six_distinct_scores_give_fifteen(self):
        teacher = [5, 2, 9, 1, 4, 7]
        pairs = make_rank_pairs(cands([0] * 6, teacher=teacher))
        brute = sum(
            1
            for i, j in itertools.permutations(range(6), 2)
            if teacher[i] > teacher[j]
        )
        assert len(pairs) == brute == 15

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=8))
    @settings(max_examples=60)
    def test_count_is_pairs_minus_ties(self, teacher):
        pairs = make_rank_pairs(cands([0.0] * len(teacher), teacher=teacher))
        expected = sum(
            1
            for i, j in itertools.combinations(range(len(teacher)), 2)
            if teacher[i] != teacher[j]
        )
        assert len(pairs) == expected

    def test_requires_teacher(self):
        with pytest.raises(ValueError):
            make_rank_pairs(cands([0, 0]))


class TestRankConsistent:
    def test_agreement_gives_zero(self):
        c = cands([3.0, 2.0, 1.0], teacher=[9.0, 5.0, 1.0])
        lv = rank_consistent_loss(c)
        assert lv.loss == 0.0
        assert not lv.grad.any()

    def test_single_reversed_pair_is_margin(self):
        c = cands([1.0, 3.5], teacher=[2.0, 1.0])
        lv = rank_consistent_loss(c)
        assert lv.loss == pytest.approx(2.5, abs=1e-12)

    def test_matches_brute_force_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.normal(size=6)
            t = rng.normal(size=6)
            c = cands(s, teacher=t)
            pairs = make_rank_pairs(c)
            expected = 0.0
            pids = c.pids
            idx = {pid: i for i, pid in enumerate(pids)}
            for win, lose in pairs.pairs:
                expected += max(0.0, s[idx[lose]] - s[idx[win]])
            expected /= max(len(pairs), 1)
            lv = rank_consistent_loss(c)
            assert lv.loss == pytest.approx(expected, abs=1e-12)

    def test_empty_pairs_zero(self):
        c = cands([1.0, 2.0], teacher=[1.0, 1.0])
        lv = rank_consistent_loss(c)
        assert lv.loss == 0.0 and not lv.grad.any()

    def test_tie_has_zero_subgradient(self):
        c = cands([2.0, 2.0], teacher=[5.0, 1.0])
        lv = rank_consistent_loss(c)
        assert lv.loss == 0.0 and not lv.grad.any()

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("rank-consistent", seed) < 1e-6


class TestCombined:
    def test_zero_weight_equals_contrastive(self):
        c = cands([1.0, 0.2, -0.3], teacher=[3, 2, 1])
        cl = contrastive_loss(c)
        ll = rank_consistent_loss(c)
        total = combined_loss(cl, ll, 0.0)
        assert total.loss == cl.loss
        assert np.array_equal(total.grad, cl.grad)

    def test_default_weight_arithmetic(self):
        from lexlab.objectives import LossValue

        total = combined_loss(
            LossValue(1.0, np.zeros(3)), LossValue(0.5, np.zeros(3)), 1.2
        )
        assert total.loss == pytest.approx(1.6, abs=1e-12)

    def test_affine_in_weight(self):
        c = cands([0.4, -0.1, 0.9], teacher=[1, 3, 2])
        cl = contrastive_loss(c)
        ll = rank_consistent_loss(c)
        for w in (0.0, 1.0, 2.0):
            assert combined_loss(cl, ll, w).loss == pytest.approx(
                cl.loss + w * ll.loss, abs=1e-12
            )

    def test_negative_weight_rejected(self):
        c = cands([0.0, 1.0], teacher=[1, 0])
        cl = contrastive_loss(c)
        with pytest.raises(ValueError):
            combined_loss(cl, cl, -0.5)


class TestMarginMse:
    def test_matching_margins_zero(self):
        c = cands([4.0, 2.0, 1.0], teacher=[4.0, 2.0, 1.0])
        lv = margin_mse_loss(c)
        assert lv.loss == pytest.approx(0.0, abs=1e-18)

    def test_single_pair_squared_gap(self):
        c = cands([1.0, 0.0], teacher=[3.0, 0.0])
        lv = margin_mse_loss(c)
        assert lv.loss == pytest.approx(4.0, abs=1e-12)

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("margin-mse", seed) < 1e-6


class TestKl:
    def test_identical_distributions_zero(self):
        c = cands([0.3, -0.1, 0.7], teacher=[0.3, -0.1, 0.7])
        assert kl_divergence_loss(c).loss == pytest.approx(0.0, abs=1e-15)

    def test_cross_entropy_identity(self):
        # KL(P||Q) == CE(P, Q) - H(P), verified numerically.
        c = cands([0.0, 0.0, 0.0], teacher=[2.0, 1.0, -1.0])
        t = np.array([2.0, 1.0, -1.0])
        p = np.exp(t - t.max())
        p /= p.sum()
        q = np.full(3, 1 / 3)
        ce = -(p * np.log(q)).sum()
        ent = -(p * np.log(p)).sum()
        assert kl_divergence_loss(c).loss == pytest.approx(ce - ent, abs=1e-12)

    def test_gradient_sums_to_zero(self):
        c = cands([1.0, 2.0, -0.5], teacher=[0.1, 0.2, 0.3])
        assert abs(kl_divergence_loss(c).grad.sum()) < 1e-12

    def test_shift_invariance(self):
        a = kl_divergence_loss(cands([1.0, 2.0], teacher=[0.5, 0.1]))
        b = kl_divergence_loss(cands([31.0, 32.0], teacher=[-99.5, -99.9]))
        assert a.loss == pytest.approx(b.loss, abs=1e-12)

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("kl", seed) < 1e-6


class TestListNet:
    def test_equal_vectors_give_teacher_entropy(self):
        t = np.array([1.0, 0.0, -1.0])
        c = cands(t.copy(), teacher=t.copy())
        p = np.exp(t - t.max())
        p /= p.sum()
        entropy = -(p * np.log(p)).sum()
        assert listnet_loss(c).loss == pytest.approx(entropy, abs=1e-12)

    def test_student_shift_invariance(self):
        a = listnet_loss(cands([0.2, 0.9, -0.4], teacher=[1, 2, 3]))
        b = listnet_loss(cands([10.2, 10.9, 9.6], teacher=[1, 2, 3]))
        assert a.loss == pytest.approx(b.loss, abs=1e-12)

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("listnet", seed) < 1e-6


class TestFilter:
    def test_all_below_threshold_unchanged(self):
        c = cands([0, 0, 0], teacher=[10.0, 1.0, 2.0])
        kept = filter_false_negatives(c)
        assert kept.neg_pids == c.neg_pids

    def test_negative_above_positive_removed(self):
        c = cands([0, 0], teacher=[1.0, 1.5])
        kept = filter_false_negatives(c, threshold=1.0)
        assert kept.neg_pids == []

    def test_removed_count_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t = rng.uniform(0.0, 5.0, size=7)
            c = cands(np.zeros(7), teacher=t)
            kept = filter_false_negatives(c, threshold=0.95)
            expected_removed = sum(1 for x in t[1:] if x >= 0.95 * t[0])
            assert len(c.neg_pids) - len(kept.neg_pids) == expected_removed

    def test_scores_stay_aligned(self):
        c = cands([9.0, 1.0, 2.0, 3.0], teacher=[1.0, 0.2, 5.0, 0.1])
        kept = filter_false_negatives(c)
        assert kept.pids == ["p+", "n0", "n2"]
        assert list(kept.scores) == [9.0, 1.0, 3.0]


class TestFlops:
    def test_zero_weight(self):
        assert flops_penalty([np.array([0])], [np.array([2.0])], 0.0).loss == 0.0

    def test_empty_vectors(self):
        lv = flops_penalty([np.array([], dtype=int)] * 2, [np.array([])] * 2, 1.0)
        assert lv.loss == 0.0 and not len(lv.grad)

    def test_single_vector_formula(self):
        lv = flops_penalty([np.array([3])], [np.array([2.0])], 1.5)
        assert lv.loss == pytest.approx(1.5 * 4.0, abs=1e-12)
        assert lv.grad == pytest.approx([1.5 * 2 * 2.0])

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("flops", seed) < 1e-6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            flops_penalty([], [], -1.0)


class TestExhaustiveOrderings:
    def test_zero_iff_order_preserved(self):
        # For every candidate-set size up to 6 and every permutation of
        # distinct student scores: loss is 0 iff the student's strict order
        # matches the teacher's on every pair.
        for n in range(2, 7):
            teacher = np.arange(n, 0, -1, dtype=float)  # strictly decreasing
            base = np.arange(n, 0, -1, dtype=float)
            for perm in itertools.permutations(range(n)):
                student = base[list(perm)]
                c = cands(student, teacher=teacher)
                lv = rank_consistent_loss(c)
                if perm == tuple(range(n)):
                    assert lv.loss == 0.0
                else:
                    assert lv.loss > 0.0
