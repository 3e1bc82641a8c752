"""Weighting fold losses without breaking unbiasedness.

Any weight vector summing to k keeps the weighted cross-validation
loss unbiased, but the spread of the weights drives its variance:
Var = (1/k^2) sum lambda_i^2 Var(L_i). Equal weights minimise it.
"""

import numpy as np

from fusionval.data import generate_dataset
from fusionval.kfold import (
    LambdaWeights,
    empirical_kfold_loss,
    kfold_losses,
    make_folds,
    weighted_kfold_loss,
)
from fusionval.rng import derive_stream
from fusionval.sampling import srs_sample


def one_round(data, k, stream, weights):
    sample = data.values[srs_sample(data, 1500, stream).indices]
    plan = make_folds(len(sample), k, stream)
    losses = kfold_losses(sample, plan)
    return losses, weighted_kfold_loss(losses, weights)


def main():
    k = 5
    uniform = LambdaWeights.uniform(k)
    skewed = LambdaWeights(np.array([3.0, 0.5, 0.5, 0.5, 0.5]))

    data = generate_dataset(2_000, 0.0, 1.0, derive_stream(77, 0, 0))
    losses, _ = one_round(data, k, derive_stream(77, 1, 0), uniform)
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
        losses, _ = one_round(data, k, stream, uniform)
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
