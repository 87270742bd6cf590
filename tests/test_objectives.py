import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lexlab.gradcheck import loss_grad_check
from lexlab.objectives import (
    PAIR_STRATEGIES,
    STRATEGIES,
    batch_loss,
    combined_loss,
    contrastive_loss,
    flops_penalty,
    kl_divergence_loss,
    make_rank_pairs,
    margin_mse_loss,
    rank_consistent_loss,
    strategy_loss,
)

from helpers import (
    set_contrastive,
    set_flops,
    set_kl,
    set_margin_mse,
    set_rank_consistent,
    set_strategy_loss,
)


def arr(values):
    return np.asarray(values, dtype=float)


def row(values):
    """One candidate set as a one-row matrix."""
    return arr(values)[None]


class TestContrastive:
    def test_uniform_scores_log_n(self):
        lv = contrastive_loss(row([1.0, 1.0, 1.0, 1.0]))
        assert lv.loss[0] == pytest.approx(math.log(4), abs=1e-12)

    def test_dominant_positive_loss_to_zero(self):
        lv = contrastive_loss(row([60.0, 0.0, 0.0]))
        assert lv.loss[0] < 1e-20

    def test_gradient_sums_to_zero_and_matches_fd(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            scores = rng.normal(size=5)
            lv = contrastive_loss(scores[None])
            assert abs(lv.grad.sum()) < 1e-12
        for seed in range(10):
            assert loss_grad_check("contrastive", seed) < 1e-6

    def test_shift_invariance(self):
        base = arr([0.5, -0.2, 1.1])
        shifted = arr([100.5, 99.8, 101.1])
        assert contrastive_loss(base[None]).loss[0] == pytest.approx(
            contrastive_loss(shifted[None]).loss[0], abs=1e-12
        )

    def test_requires_negative(self):
        with pytest.raises(ValueError):
            contrastive_loss(row([1.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss(row([1.0, float("nan")]))


class TestRankPairs:
    def test_all_ties_give_empty_set(self):
        pairs = make_rank_pairs(arr([2, 2, 2]))
        assert len(pairs) == 0

    def test_three_distinct_scores_give_three_pairs(self):
        pairs = make_rank_pairs(arr([3, 1, 2]))
        assert len(pairs) == 3
        assert (0, 1) in pairs.pairs and (2, 1) in pairs.pairs

    def test_six_distinct_scores_give_fifteen(self):
        teacher = [5, 2, 9, 1, 4, 7]
        pairs = make_rank_pairs(arr(teacher))
        brute = sum(
            1
            for i, j in itertools.permutations(range(6), 2)
            if teacher[i] > teacher[j]
        )
        assert len(pairs) == brute == 15

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=8))
    @settings(max_examples=60)
    def test_count_is_pairs_minus_ties(self, teacher):
        pairs = make_rank_pairs(arr(teacher))
        expected = sum(
            1
            for i, j in itertools.combinations(range(len(teacher)), 2)
            if teacher[i] != teacher[j]
        )
        assert len(pairs) == expected

    def test_requires_teacher(self):
        # Every strategy but "none" reads the teacher, which must align.
        for strategy in ("rank-consistent", "margin-mse", "kl", "filter"):
            with pytest.raises(ValueError, match="needs teacher"):
                strategy_loss(strategy, row([0, 0]))
            with pytest.raises(ValueError, match="align"):
                strategy_loss(strategy, row([0, 0]), row([1, 0, 2]))


class TestRankConsistent:
    def test_agreement_gives_zero(self):
        lv = rank_consistent_loss(row([3.0, 2.0, 1.0]), row([9.0, 5.0, 1.0]))
        assert lv.loss[0] == 0.0
        assert not lv.grad.any()

    def test_single_reversed_pair_is_margin(self):
        lv = rank_consistent_loss(row([1.0, 3.5]), row([2.0, 1.0]))
        assert lv.loss[0] == pytest.approx(2.5, abs=1e-12)

    def test_matches_brute_force_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = rng.normal(size=6)
            t = rng.normal(size=6)
            pairs = make_rank_pairs(t)
            expected = 0.0
            for win, lose in pairs.pairs:
                expected += max(0.0, s[lose] - s[win])
            expected /= max(len(pairs), 1)
            lv = rank_consistent_loss(s[None], t[None])
            assert lv.loss[0] == pytest.approx(expected, abs=1e-12)

    def test_empty_pairs_zero(self):
        lv = rank_consistent_loss(row([1.0, 2.0]), row([1.0, 1.0]))
        assert lv.loss[0] == 0.0 and not lv.grad.any()

    def test_tie_has_zero_subgradient(self):
        lv = rank_consistent_loss(row([2.0, 2.0]), row([5.0, 1.0]))
        assert lv.loss[0] == 0.0 and not lv.grad.any()

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("rank-consistent", seed) < 1e-6


class TestCombined:
    def test_zero_weight_equals_contrastive(self):
        s, t = row([1.0, 0.2, -0.3]), row([3, 2, 1])
        cl = contrastive_loss(s)
        ll = rank_consistent_loss(s, t)
        total = combined_loss(cl, ll, 0.0)
        assert total.loss.tolist() == cl.loss.tolist()
        assert np.array_equal(total.grad, cl.grad)

    def test_default_weight_arithmetic(self):
        from lexlab.objectives import LossValue

        total = combined_loss(
            LossValue(arr([1.0]), np.zeros((1, 3))), LossValue(arr([0.5]), np.zeros((1, 3))), 1.2
        )
        assert total.loss[0] == pytest.approx(1.6, abs=1e-12)

    def test_affine_in_weight(self):
        s, t = row([0.4, -0.1, 0.9]), row([1, 3, 2])
        cl = contrastive_loss(s)
        ll = rank_consistent_loss(s, t)
        for w in (0.0, 1.0, 2.0):
            assert combined_loss(cl, ll, w).loss[0] == pytest.approx(
                cl.loss[0] + w * ll.loss[0], abs=1e-12
            )

    def test_negative_weight_rejected(self):
        cl = contrastive_loss(row([0.0, 1.0]))
        with pytest.raises(ValueError):
            combined_loss(cl, cl, -0.5)


class TestMarginMse:
    def test_matching_margins_zero(self):
        lv = margin_mse_loss(row([4.0, 2.0, 1.0]), row([4.0, 2.0, 1.0]))
        assert lv.loss[0] == pytest.approx(0.0, abs=1e-18)

    def test_single_pair_squared_gap(self):
        lv = margin_mse_loss(row([1.0, 0.0]), row([3.0, 0.0]))
        assert lv.loss[0] == pytest.approx(4.0, abs=1e-12)

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("margin-mse", seed) < 1e-6


class TestKl:
    def test_identical_distributions_zero(self):
        lv = kl_divergence_loss(row([0.3, -0.1, 0.7]), row([0.3, -0.1, 0.7]))
        assert lv.loss[0] == pytest.approx(0.0, abs=1e-15)

    def test_cross_entropy_identity(self):
        # KL(P||Q) == CE(P, Q) - H(P), verified numerically.
        t = np.array([2.0, 1.0, -1.0])
        p = np.exp(t - t.max())
        p /= p.sum()
        q = np.full(3, 1 / 3)
        ce = -(p * np.log(q)).sum()
        ent = -(p * np.log(p)).sum()
        lv = kl_divergence_loss(np.zeros((1, 3)), t[None])
        assert lv.loss[0] == pytest.approx(ce - ent, abs=1e-12)

    def test_gradient_sums_to_zero(self):
        lv = kl_divergence_loss(row([1.0, 2.0, -0.5]), row([0.1, 0.2, 0.3]))
        assert abs(lv.grad.sum()) < 1e-12

    def test_shift_invariance(self):
        a = kl_divergence_loss(row([1.0, 2.0]), row([0.5, 0.1]))
        b = kl_divergence_loss(row([31.0, 32.0]), row([-99.5, -99.9]))
        assert a.loss[0] == pytest.approx(b.loss[0], abs=1e-12)

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("kl", seed) < 1e-6


def listnet_oracle(scores, teacher):
    """ListNet's top-1 cross-entropy (Cao et al., 2007) and its gradient."""

    def log_softmax(x):
        shifted = x - x.max()
        return shifted - math.log(np.exp(shifted).sum())

    logp = log_softmax(teacher)
    logq = log_softmax(scores)
    p = np.exp(logp)
    return -float((p * logq).sum()), np.exp(logq) - p


def entropy(teacher):
    p = np.exp(teacher - teacher.max())
    p /= p.sum()
    return -float((p * np.log(p)).sum())


class TestListNet:
    """The kl strategy at temperature 1 is ListNet less the teacher's entropy."""

    def test_equal_vectors_give_teacher_entropy(self):
        t = np.array([1.0, 0.0, -1.0])
        listnet, _ = listnet_oracle(t.copy(), t)
        assert listnet == pytest.approx(entropy(t), abs=1e-12)
        _, _, ll = strategy_loss("kl", t.copy()[None], t[None], kl_temperature=1.0)
        assert ll[0] == pytest.approx(listnet - entropy(t), abs=1e-12)

    def test_student_shift_invariance(self):
        t = row([1, 2, 3])
        a = kl_divergence_loss(row([0.2, 0.9, -0.4]), t, temperature=1.0)
        b = kl_divergence_loss(row([10.2, 10.9, 9.6]), t, temperature=1.0)
        assert a.loss[0] == pytest.approx(b.loss[0], abs=1e-12)

    def test_kl_at_unit_temperature_has_listnet_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 34))
            s, t = rng.normal(size=(1, n)) * 3.0, rng.normal(size=(1, n)) * 3.0
            total, cl, ll = strategy_loss("kl", s, t, reg_weight=1.2, kl_temperature=1.0)
            listnet, listnet_grad = listnet_oracle(s[0], t[0])
            assert kl_divergence_loss(s, t, 1.0).grad[0].tobytes() == listnet_grad.tobytes()
            expected = contrastive_loss(s).grad[0] + 1.2 * listnet_grad
            assert total.grad[0].tobytes() == expected.tobytes()
            assert listnet == pytest.approx(ll[0] + entropy(t[0]), abs=1e-9)


def filter_oracle(scores, teacher, threshold):
    """The kept candidate positions, the positive first, by a loop."""
    return [0] + [i for i in range(1, len(scores)) if teacher[i] < threshold * teacher[0]]


class TestFilter:
    def test_all_below_threshold_unchanged(self):
        s = arr([0.3, -0.2, 0.5])
        total, cl, ll = strategy_loss("filter", s[None], row([10.0, 1.0, 2.0]))
        plain = contrastive_loss(s[None])
        assert (total.loss[0], cl[0], ll[0]) == (plain.loss[0], plain.loss[0], 0.0)
        assert total.grad.tobytes() == plain.grad.tobytes()

    def test_negative_above_positive_removed(self):
        s = arr([0.3, 0.7, -0.1])
        total, _, _ = strategy_loss("filter", s[None], row([1.0, 1.5, 0.2]), filter_threshold=1.0)
        assert total.grad[0, 1] == 0.0
        assert total.grad[0, [0, 2]].tobytes() == contrastive_loss(s[None, [0, 2]]).grad.tobytes()

    def test_removed_count_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s, t = rng.normal(size=7), rng.uniform(0.0, 5.0, size=7)
            total, _, _ = strategy_loss("filter", s[None], t[None], filter_threshold=0.95)
            expected_removed = [i for i in range(1, 7) if t[i] >= 0.95 * t[0]]
            assert [i for i in range(1, 7) if total.grad[0, i] == 0.0] == expected_removed

    def test_scores_stay_aligned(self):
        s = arr([9.0, 1.0, 2.0, 3.0])
        total, _, _ = strategy_loss("filter", s[None], row([1.0, 0.2, 5.0, 0.1]))
        kept = contrastive_loss(row([9.0, 1.0, 3.0]))
        assert total.loss.tolist() == kept.loss.tolist()
        assert total.grad[0].tolist() == [kept.grad[0, 0], kept.grad[0, 1], 0.0, kept.grad[0, 2]]

    def test_nan_teacher_score_dropped(self):
        s = arr([0.5, 0.1, -0.3])
        total, _, _ = strategy_loss("filter", s[None], row([1.0, float("nan"), 0.2]))
        assert total.grad[0, 1] == 0.0
        assert total.grad[0, [0, 2]].tobytes() == contrastive_loss(s[None, [0, 2]]).grad.tobytes()

    def test_no_kept_negative_gives_zero(self):
        for teacher in ([1.0, 1.0, 1.0], [float("nan"), 0.1, 0.2], [1.0, float("nan")]):
            t = row(teacher)
            total, cl, ll = strategy_loss("filter", np.linspace(0.1, 0.5, t.shape[1])[None], t)
            assert (total.loss[0], cl[0], ll[0]) == (0.0, 0.0, 0.0)
            assert not total.grad.any()

    def test_matches_keep_oracle_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 34))
            s, t = rng.normal(size=n), rng.uniform(-1.0, 3.0, size=n)
            t[rng.random(n) < 0.1] = np.nan
            total, cl, _ = strategy_loss("filter", s[None], t[None], filter_threshold=0.9)
            keep = filter_oracle(s, t, 0.9)
            dropped = np.setdiff1d(np.arange(n), keep)
            assert total.grad[0, dropped].tobytes() == np.zeros(len(dropped)).tobytes()
            if len(keep) == 1:
                assert total.loss[0] == cl[0] == 0.0
                continue
            expected = contrastive_loss(s[None, keep])
            assert total.loss[0] == cl[0] == expected.loss[0]
            assert total.grad[0, keep].tobytes() == expected.grad.tobytes()


class TestFlops:
    def test_zero_weight(self):
        assert flops_penalty([np.array([0])], [np.array([2.0])], 0.0, [1]).loss[0] == 0.0

    def test_empty_vectors(self):
        lv = flops_penalty([np.array([], dtype=int)] * 2, [np.array([])] * 2, 1.0, [2])
        assert lv.loss[0] == 0.0 and not len(lv.grad)

    def test_single_vector_formula(self):
        lv = flops_penalty([np.array([3])], [np.array([2.0])], 1.5, [1])
        assert lv.loss[0] == pytest.approx(1.5 * 4.0, abs=1e-12)
        assert lv.grad == pytest.approx([1.5 * 2 * 2.0])

    def test_fd(self):
        for seed in range(10):
            assert loss_grad_check("flops", seed) < 1e-6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            flops_penalty([], [], -1.0, [])


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
                lv = rank_consistent_loss(student[None], teacher[None])
                if perm == tuple(range(n)):
                    assert lv.loss[0] == 0.0
                else:
                    assert lv.loss[0] > 0.0


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestRowWiseMatchesPerSetOracles:
    """Every loss over a matrix of sets, and FLOPS over a batch of sets, gives
    each set the bits of its per-set form in `tests/helpers.py`."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.sampled_from([2, 3, 6, 9, 33]), min_size=1, max_size=8),
        strategy=st.sampled_from(STRATEGIES),
        ties=st.booleans(),
        threshold=st.sampled_from([0.5, 0.95, 1.0]),
        temperature=st.sampled_from([1.0, 2.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_batch_loss_matches_per_set_strategy_loss(
        self, seed, lengths, strategy, ties, threshold, temperature
    ):
        rng = np.random.default_rng(seed)
        scores = [rng.normal(size=n) * 3.0 for n in lengths]
        # Small integer teacher scores tie often.
        teacher = [rng.integers(-2, 3, size=n).astype(float) if ties else rng.normal(size=n)
                   for n in lengths]
        teacher[0][:] = 1.0  # all ties: no rank pairs
        if len(lengths) > 1:
            scores[1] = teacher[1].copy()  # the student agrees: no active hinge
        if len(lengths) > 2:
            teacher[2][1:] = abs(teacher[2][0]) + 10.0  # filter drops every negative
        pairs = [make_rank_pairs(t) for t in teacher]
        losses, grads, cl, ll = batch_loss(
            strategy, scores, None if strategy == "none" else teacher,
            pairs if strategy in PAIR_STRATEGIES else None, 1.2, threshold, temperature,
        )
        for k in range(len(lengths)):
            total, cl_k, ll_k = set_strategy_loss(
                strategy, scores[k], teacher[k], 1.2, threshold, temperature
            )
            assert bits(losses[k]) == bits(total.loss)
            assert grads[k].tobytes() == total.grad.tobytes()
            assert (bits(cl[k]), bits(ll[k])) == (bits(cl_k), bits(ll_k))

    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 6), n=st.integers(2, 12),
           ties=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_each_loss_row_by_row(self, seed, n_rows, n, ties):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=(n_rows, n))
        shape = (n_rows, n)
        t = rng.integers(-1, 2, size=shape).astype(float) if ties else rng.normal(size=shape)
        row_forms = [
            (contrastive_loss(s), lambda r: set_contrastive(s[r])),
            (rank_consistent_loss(s, t), lambda r: set_rank_consistent(s[r], t[r])),
            (margin_mse_loss(s, t), lambda r: set_margin_mse(s[r], t[r])),
            (kl_divergence_loss(s, t, 2.0), lambda r: set_kl(s[r], t[r], 2.0)),
        ]
        for lv, oracle in row_forms:
            for r in range(n_rows):
                expected = oracle(r)
                assert bits(lv.loss[r]) == bits(expected.loss)
                assert lv.grad[r].tobytes() == expected.grad.tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_nan_score_in_one_row_rejected(self, strategy):
        scores = [np.array([0.1, 0.2, 0.3]), np.array([0.4, np.nan, 0.0]), np.array([1.0, 2.0])]
        teacher = [np.array([3.0, 2.0, 1.0]), np.array([3.0, 1.0, 2.0]), np.array([1.0, 0.0])]
        with pytest.raises(ValueError, match="NaN score"):
            set_strategy_loss(strategy, scores[1], teacher[1])
        pairs = [make_rank_pairs(t) for t in teacher] if strategy in PAIR_STRATEGIES else None
        with pytest.raises(ValueError, match="NaN score"):
            batch_loss(strategy, scores, None if strategy == "none" else teacher, pairs)

    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
        weight=st.floats(0.01, 3.0),
        empty_set=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_flops_per_set_matches_oracle(self, seed, sizes, weight, empty_set):
        rng = np.random.default_rng(seed)
        # Vectors of 0-8 ascending terms: empty traces occur, and with
        # `empty_set` a whole set has no active term.
        n_terms = rng.integers(0, 9, size=sum(sizes))
        if empty_set:
            n_terms[: sizes[0]] = 0
        terms = [np.sort(rng.choice(20, size=int(k), replace=False)).astype(np.int64)
                 for k in n_terms]
        values = [rng.uniform(0.01, 2.0, size=len(t)) for t in terms]
        lv = flops_penalty(terms, values, weight, sizes)
        bounds = np.cumsum([0, *sizes]).tolist()
        entry = np.cumsum([0, *map(len, terms)]).tolist()
        assert len(lv.loss) == len(sizes) and len(lv.grad) == entry[-1]
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            expected = set_flops(terms[a:b], values[a:b], weight)
            assert bits(lv.loss[k]) == bits(expected.loss)
            assert lv.grad[entry[a]:entry[b]].tobytes() == expected.grad.tobytes()
