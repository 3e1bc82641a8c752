"""Weighting fold losses without breaking unbiasedness.

Any weight vector summing to k keeps the weighted cross-validation
loss unbiased, but the spread of the weights drives its variance:
Var = (1/k^2) sum lambda_i^2 Var(L_i). Equal weights minimise it.
"""

import numpy as np

from fusionval.data import generate_dataset
from fusionval.fsv import sampled_kfold_trial
from fusionval.kfold import (
    LambdaWeights,
    empirical_kfold_loss,
    weighted_kfold_loss,
)
from fusionval.rng import derive_stream

# every fraction in this window rounds to m = 1 500 of the 2 000 points
WINDOW = (0.7499, 0.7501)


def one_round(data, k, stream):
    """One round's fold losses, every draw from ``stream``."""
    return sampled_kfold_trial(
        data, k, stream, folds_stream=stream, fraction_stream=stream,
        fraction_range=WINDOW,
    ).fold_losses


def main():
    k = 5
    uniform = LambdaWeights.uniform(k)
    skewed = LambdaWeights(np.array([3.0, 0.5, 0.5, 0.5, 0.5]))

    data = generate_dataset(2_000, 0.0, 1.0, derive_stream(77, 0, 0))
    losses = one_round(data, k, derive_stream(77, 1, 0))
    print("one cross-validation round")
    print(f"  fold losses:   {np.round(losses, 4)}")
    print(f"  plain average: {empirical_kfold_loss(losses):.6f}")
    print(f"  uniform weights give the identical value: "
          f"{weighted_kfold_loss(losses, uniform):.6f}")
    print(f"  skewed weights ({skewed.lambdas}) give "
          f"{weighted_kfold_loss(losses, skewed):.6f}")

    rounds = 2_000
    results = {"uniform": [], "skewed": []}
    for r in range(rounds):
        stream = derive_stream(77, 100 + r, 0)
        losses = one_round(data, k, stream)
        results["uniform"].append(weighted_kfold_loss(losses, uniform))
        results["skewed"].append(weighted_kfold_loss(losses, skewed))

    print()
    print(f"over {rounds} rounds on the same dataset")
    for name, vals in results.items():
        arr = np.array(vals)
        print(f"  {name:>7}: mean {arr.mean():.5f}  variance {arr.var(ddof=1):.3e}")
    print("both means sit on the same target; the skewed weights only "
          "add variance")


if __name__ == "__main__":
    main()
