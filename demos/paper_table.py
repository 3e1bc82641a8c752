"""The abstract's FSV numbers beside this package's reference run.

The abstract reports FSV's cell means as ME 0.000863, VE 0.949644,
MSE 0.952127, bias 0.016288, ROC_ME 0.005199 and ROC_VE 0.007137. This
demo runs the seed-42 cell (n, T) = (100 000, 100) of the reference
study (the same values as that cell of the full grid) and prints its
FSV means beside them, then the same means divided by alpha.

Every FSV row is alpha times what the FSV pass measured, so VE and MSE
read near alpha * sigma2 = 0.95, not 1: a designed shrink, not a
better estimate. Divided by alpha they read near sigma2. The other rows
are alpha times a small deviation, so alpha moves them by only 5 per
cent of their own size and does not explain their gaps to the abstract.
"""

from fusionval.fsv import compound_measure
from fusionval.harness import ExperimentConfig, run_experiment

N, T = 100_000, 100
ABSTRACT = {
    "mean_est": 0.000863,
    "var_est": 0.949644,
    "mse": 0.952127,
    "bias": 0.016288,
    "roc_me": 0.005199,
    "roc_ve": 0.007137,
}
LABELS = {
    "mean_est": "ME",
    "var_est": "VE",
    "mse": "MSE",
    "bias": "Bias",
    "roc_me": "ROC_ME",
    "roc_ve": "ROC_VE",
}


def main():
    config = ExperimentConfig(sizes=(N,), trials=(T,))
    cell = run_experiment(config, jobs=1).cell(N, T)
    alpha = config.alpha
    fsv = {metric: agg.mean for metric, agg in cell.summaries["FSV"].items()}
    print(f"FSV cell means at (n, T) = ({N}, {T}), seed {config.seed}, "
          f"alpha = {alpha}")
    print()
    print("| metric | abstract  | seed 42   | seed 42 / alpha |")
    print("|--------|-----------|-----------|-----------------|")
    for metric, label in LABELS.items():
        print(f"| {label:<6} | {ABSTRACT[metric]:9.6f} | {fsv[metric]:9.6f} "
              f"| {fsv[metric] / alpha:15.6f} |")
    lstar = compound_measure(cell.fsv_iteration_losses, alpha)
    print(f"| L*     | {'':9} | {lstar:9.6f} | {lstar / alpha:15.6f} |")
    print()
    print(f"from alpha: VE and MSE read near alpha * sigma2 = "
          f"{alpha * config.sigma2:.6f};")
    print(f"  divided by alpha they read {fsv['var_est'] / alpha:.6f} and "
          f"{fsv['mse'] / alpha:.6f}, near sigma2 = {config.sigma2:g}")
    print("not from alpha: the ME, Bias and ROC gaps; alpha moves those rows")
    print(f"  by only {1 - alpha:.0%} of their own size")


if __name__ == "__main__":
    main()
