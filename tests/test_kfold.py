import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionval.data import Dataset, generate_dataset
from fusionval.errors import _MAX_ENTRIES, ValidationError
from fusionval.kfold import (
    FoldPlan,
    LambdaWeights,
    empirical_kfold_loss,
    kfold_losses,
    make_folds,
    repeated_kfcv,
    weighted_kfold_loss,
)
from fusionval.rng import RngStream, derive_stream


def _constant_dataset(n, value=5.0):
    return Dataset(values=np.full(n, value), true_mean=value, true_var=1.0)


class TestMakeFolds:
    def test_divisible_case(self):
        plan = make_folds(10, 5, RngStream(3, 0))
        assert [len(f) for f in plan.folds] == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        plan = make_folds(11, 5, RngStream(3, 0))
        assert sorted((len(f) for f in plan.folds), reverse=True) == [3, 2, 2, 2, 2]

    def test_leave_one_out_boundary(self):
        plan = make_folds(6, 6, RngStream(3, 0))
        assert all(len(f) == 1 for f in plan.folds)
        merged = np.sort(np.concatenate(plan.folds))
        np.testing.assert_array_equal(merged, np.arange(6))

    def test_rejects_bad_k(self):
        # both refused by the count rule, before the draw
        for size, k, want in (
            (10, 1, "k must be >= 2, got 1"),
            (4, 5, "sample_size must be >= 5, got 4"),
        ):
            stream = RngStream(3, 0)
            before = stream.generator.bit_generator.state
            with pytest.raises(ValidationError, match=f"^{want}$"):
                make_folds(size, k, stream)
            assert stream.generator.bit_generator.state == before

    @given(
        size=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=120)
    def test_invariants_exhaustive_small_sizes(self, size, seed):
        for k in range(2, size + 1):
            plan = make_folds(size, k, RngStream(seed, 0))
            merged = np.concatenate(plan.folds)
            assert len(np.unique(merged)) == size
            assert merged.min() == 0 and merged.max() == size - 1
            sizes = [len(f) for f in plan.folds]
            assert max(sizes) - min(sizes) <= 1


class TestFoldPlanValidation:
    def test_hand_plan_accepted(self):
        plan = FoldPlan(np.array([0, 1, 2, 3]), k=2)
        assert plan.total == 4

    @pytest.mark.parametrize(
        "order, k, match",
        [
            ([0, 1, 1, 2], 2, "distinct"),
            ([0, 1, 3, 4], 2, r"lie in \[0, 4\)"),
            ([0], 2, "k must be <= 1"),
            # min and max pass, so only the per-index mark catches it
            ([0, 3, 3, 1], 2, "distinct"),
            ([0.0, 1.0, 2.0, 3.0], 2, "integers"),
            ([0, -1, 2, 3], 2, r"lie in \[0, 4\)"),
            ([0, 1], 1, "k must be"),
            ([[0, 1], [2, 3]], 2, "vector"),
        ],
        ids=[
            "overlap",
            "gap-in-cover",
            "empty-fold",
            "repeat-within-bounds",
            "float-indices",
            "negative-index",
            "k-below-2",
            "not-a-vector",
        ],
    )
    def test_permutation_constructor_rejects_each_on_its_own(
        self, order, k, match
    ):
        with pytest.raises(ValidationError, match=match):
            FoldPlan(np.array(order), k)

    def test_permutation_constructor_always_balances(self):
        # no order cuts into unbalanced folds: 5 points in 3 folds are
        # always sizes 2, 2, 1
        plan = FoldPlan(np.arange(5), 3)
        assert [f.tolist() for f in plan.folds] == [[0, 1], [2, 3], [4]]

    @pytest.mark.parametrize("m, k", [(2, 2), (7, 3), (10, 5), (23, 10)])
    def test_permutation_constructor_matches_array_split(self, m, k):
        order = np.random.default_rng(m).permutation(m)
        plan = FoldPlan(order, k)
        assert len(plan.folds) == k
        for got, want in zip(plan.folds, np.array_split(plan.order, k)):
            np.testing.assert_array_equal(got, want)
        assert not plan.order.flags.writeable
        assert not plan.folds[0].flags.writeable
        assert plan.total == m

    def test_unsigned_indices_accepted(self):
        plan = FoldPlan(np.array([3, 1, 0, 2], np.uint32), k=2)
        assert plan.total == 4


class TestKfoldLosses:
    def test_constant_sample(self):
        plan = FoldPlan(np.arange(4), k=2)
        losses = kfold_losses(np.array([5.0, 5.0, 5.0, 5.0]), plan)
        np.testing.assert_array_equal(losses, [0.0, 0.0])

    def test_hand_computation(self):
        plan = FoldPlan(np.arange(4), k=2)
        losses = kfold_losses(np.array([0.0, 0.0, 2.0, 2.0]), plan)
        np.testing.assert_array_equal(losses, [4.0, 4.0])

    def test_gaussian_band(self):
        sample = derive_stream(42, 30, 0).generator.standard_normal(7_500)
        plan = make_folds(7_500, 5, RngStream(3, 1))
        losses = kfold_losses(sample, plan)
        assert np.all((0.85 < losses) & (losses < 1.15))

    def test_rejects_tiny_training_complement(self):
        plan = FoldPlan(np.arange(2), k=2)
        with pytest.raises(ValidationError):
            kfold_losses(np.array([1.0, 2.0]), plan)

    def test_rejects_length_mismatch(self):
        plan = FoldPlan(np.arange(4), k=2)
        with pytest.raises(ValidationError):
            kfold_losses(np.array([1.0, 2.0]), plan)


class TestLossAverages:
    def test_empirical_examples(self):
        assert empirical_kfold_loss(np.array([1.0] * 5)) == 1.0
        assert empirical_kfold_loss(np.array([0.0, 2.0])) == 1.0
        mixed = empirical_kfold_loss(np.array([0.9, 1.0, 1.1, 1.0, 1.0]))
        assert mixed == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ValidationError):
            empirical_kfold_loss(np.array([]))

    def test_uniform_weights_reduce_to_plain_mean(self):
        losses = np.array([0.91, 1.07, 1.02, 0.98, 1.01])
        weighted = weighted_kfold_loss(losses, LambdaWeights.uniform(5))
        assert weighted == empirical_kfold_loss(losses)

    def test_zero_weight_substitution(self):
        value = weighted_kfold_loss(
            np.array([2.0, 0.0]), LambdaWeights(np.array([2.0, 0.0]))
        )
        assert value == 2.0

    def test_equal_losses_washed_through_any_valid_weights(self):
        weights = LambdaWeights(np.array([0.5, 1.5, 1.25, 0.75]))
        assert weighted_kfold_loss(np.full(4, 1.0), weights) == 1.0

    def test_unbiased_constraint_enforced(self):
        with pytest.raises(ValidationError, match="sum to k=2"):
            LambdaWeights(np.array([1.0, 1.5]))
        weights = LambdaWeights(np.array([0.5, 1.5]))
        assert weighted_kfold_loss(np.array([2.0, 2.0]), weights) == 2.0

    def test_rejects_negative_or_non_finite_weights(self):
        with pytest.raises(ValidationError):
            LambdaWeights(np.array([-0.5, 2.5]))
        with pytest.raises(ValidationError, match="finite"):
            LambdaWeights(np.array([np.nan, 2.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            weighted_kfold_loss(np.ones(3), LambdaWeights.uniform(4))

    @pytest.mark.parametrize("k", [10**21, 2**62], ids=["10**21", "2**62"])
    def test_uniform_refuses_more_weights_than_an_array_holds(self, k):
        # numpy refused these with a bare ValueError, before allocating
        with pytest.raises(
            ValidationError, match=f"^k must be <= {_MAX_ENTRIES}, got {k}$"
        ):
            LambdaWeights.uniform(k)

    @pytest.mark.parametrize(
        "average, losses",
        [
            (empirical_kfold_loss, [1.5e308, 1.5e308]),
            (
                lambda v: weighted_kfold_loss(v, LambdaWeights.uniform(2)),
                [1.5e308, 1.5e308],
            ),
            (
                lambda v: weighted_kfold_loss(v, LambdaWeights([2.0, 0.0])),
                [1e308, 1.0],
            ),
        ],
        ids=["empirical", "weighted", "large-weight"],
    )
    def test_large_losses_do_not_overflow(self, average, losses):
        # a plain mean sums to inf (and warns) before it divides, and a
        # weight multiplied in before the mean's power of two, 2 * 1e308,
        # is inf already
        assert average(losses) == losses[0]

    @given(
        losses=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8
        )
    )
    def test_uniform_equivalence_property(self, losses):
        arr = np.array(losses)
        uniform = LambdaWeights.uniform(len(arr))
        assert weighted_kfold_loss(arr, uniform) == empirical_kfold_loss(arr)


def test_weighted_variance_matches_formula():
    rng = np.random.default_rng(42)
    k, trials, sd = 5, 4000, 0.2
    lambdas = np.array([2.0, 1.0, 0.5, 0.5, 1.0])
    losses = rng.normal(1.0, sd, size=(trials, k))
    weighted = losses @ lambdas / k
    predicted = (sd**2) * float(np.sum(lambdas**2)) / k**2
    assert np.var(weighted, ddof=1) == pytest.approx(predicted, rel=0.10)
    plain = losses.mean(axis=1)
    assert np.var(plain, ddof=1) == pytest.approx((sd**2) / k, rel=0.10)


class TestRepeatedKfcv:
    def test_constant_data(self):
        est = repeated_kfcv(
            _constant_dataset(20),
            repetitions=1,
            weights=LambdaWeights.uniform(2),
            stream=RngStream(3, 2),
        )
        assert est.loss == 0.0
        assert est.mean_estimate == 5.0
        assert est.var_estimate == 0.0

    def test_protocol_scale_bands(self):
        data = generate_dataset(10_000, 0.0, 1.0, derive_stream(42, 31, 0))
        est = repeated_kfcv(
            data,
            repetitions=10,
            weights=LambdaWeights.uniform(5),
            stream=derive_stream(42, 31, 4),
        )
        assert 0.97 < est.var_estimate < 1.03
        assert 0.97 < est.loss < 1.05

    def test_replay_is_bit_identical(self):
        data = generate_dataset(2_000, 0.0, 1.0, derive_stream(7, 0, 0))
        runs = [
            repeated_kfcv(
                data,
                repetitions=3,
                weights=LambdaWeights.uniform(5),
                stream=derive_stream(7, 0, 4),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_rejects_bad_arguments(self):
        data = _constant_dataset(30)
        with pytest.raises(ValidationError):
            repeated_kfcv(data, 0, LambdaWeights.uniform(2), RngStream(3, 3))
