"""Distribution-free bounds versus observed deviations.

Replicates compounded runs, then asks how often the run statistic
strays k standard deviations (Chebyshev) or a fixed epsilon
(Hoeffding, for losses confined to an interval) from its center.
The bounds must sit above the observed frequencies; for short runs
they are loose, which is the price of assuming almost nothing.
"""

import numpy as np

from fusionval.data import generate_dataset
from fusionval.fsv import FsvConfig, fsv_run
from fusionval.rng import derive_stream
from fusionval.theory import chebyshev_tail, chebyshev_threshold, hoeffding_tail

RUNS = 1_000
ITERATIONS = 8


def main():
    data = generate_dataset(500, 0.0, 1.0, derive_stream(5, 0, 0))
    config = FsvConfig(iterations=ITERATIONS, alpha=1.0)
    stats = []
    for r in range(RUNS):
        result = fsv_run(data, config, derive_stream(5, 10 + r, 0))
        clipped = np.clip(np.asarray(result.iteration_losses), 0.0, 4.0)
        stats.append(float(clipped.mean()))
    arr = np.array(stats)
    center = arr.mean()
    sd = arr.std(ddof=1)
    print(f"{RUNS} runs of T = {ITERATIONS}: "
          f"center {center:.4f}, spread {sd:.4f}")

    print()
    print("Chebyshev: P(|X - center| >= k*sd) <= 1/k^2")
    print(f"{'k':>4} {'observed':>9} {'bound':>7} {'threshold':>10}")
    for k_dev in (1.5, 2.0, 3.0):
        freq = float((np.abs(arr - center) >= k_dev * sd).mean())
        thr = chebyshev_threshold(sd * sd * ITERATIONS, ITERATIONS, k_dev)
        print(f"{k_dev:>4} {freq:>9.4f} {chebyshev_tail(k_dev):>7.4f} "
              f"{thr:>10.4f}")

    print()
    print("Hoeffding, losses clipped to [0, 4]")
    print(f"{'eps':>5} {'observed':>9} {'raw':>7} {'capped':>7}")
    for eps in (0.01, 0.02, 0.05):
        freq = float((np.abs(arr - center) >= eps).mean())
        bound = hoeffding_tail(eps, ITERATIONS, 0.0, 4.0)
        print(f"{eps:>5} {freq:>9.4f} {bound.raw:>7.4f} {bound.capped:>7.4f}")
    print(f"with T = {ITERATIONS} and a width-4 interval the "
          f"exponent -2*T*eps^2/16 is tiny, so the capped bound is "
          f"vacuous; it sharpens as T grows:")
    for t in (8, 100, 1_000, 10_000):
        print(f"  T = {t:>6}: capped bound at eps=0.05 is "
              f"{hoeffding_tail(0.05, t, 0.0, 4.0).capped:.4f}")


if __name__ == "__main__":
    main()
