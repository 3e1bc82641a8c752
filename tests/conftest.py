import pytest

from fusionval.fsv import sampled_kfold_trial
from fusionval.harness import ExperimentConfig, run_experiment


def pinning_window(m, n):
    """A fraction window whose every draw rounds to m of n points: the
    one way to pin a subsample's size. Its high end is capped at 1, so
    m = n, the whole dataset, is reachable too, by a call that scores no
    holdout; one that scores a holdout refuses it."""
    return ((m - 0.4) / n, min((m + 0.4) / n, 1.0))


def one_stream_trial(data, k, stream, **kwargs):
    """``sampled_kfold_trial`` given ``stream`` three times, for its
    fraction, subset and folds, as ``fsv_run`` uses its one stream."""
    return sampled_kfold_trial(
        data, k, stream, folds_stream=stream, fraction_stream=stream, **kwargs
    )


@pytest.fixture(scope="session")
def grid_report():
    """One full default-protocol run, shared by statistical tests."""
    return run_experiment(ExperimentConfig(), jobs=1)


@pytest.fixture(scope="session")
def shared_grid_report():
    """Default grid rerun with the scaling-identity stream mode. Its
    tests read values only, which are the same for every ``jobs`` value,
    so it runs on every core; ``grid_report`` stays serial for the
    runtime criterion."""
    return run_experiment(ExperimentConfig(shared_streams=True), jobs=None)
