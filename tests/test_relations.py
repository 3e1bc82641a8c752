"""Metamorphic relations of the study harness over random small configs.

Each relation compares two runs, or two configs, so it needs no oracle
and holds for every config hypothesis draws: sizes up to 2 000, one to
three trial counts of 1-3 trials, k 2-6, 1-3 repetitions, any valid
window, mu, sigma2 and alpha, with or without shared streams, at
``jobs=1`` but for the workers relation, which compares it with
``jobs=2``. All hold bit for bit but location, which moves the data
by a sum that rounds. The pass kernel's one accuracy rule, the derived
bound of ``selftest._exact_scores``, compares a run with exact values,
not two runs with each other, and scoring every trial of a study
exactly would replay the harness's streams; so location keeps a float
rule of its own, relative 1e-9 plus 64 ulps of the data's size and of
its M2 (``_cell_slacks``).
"""

import dataclasses
import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fusionval.data import generate_dataset
from fusionval.errors import ValidationError
from fusionval.harness import (
    ExperimentConfig,
    _trial_key,
    report_from_dict,
    report_to_dict,
    run_experiment,
)
from fusionval.kfold import _subsample_range
from fusionval.rng import Purpose, derive_stream

_MAX_N = 2_000


@st.composite
def small_configs(draw):
    k = draw(st.integers(2, 6))
    low = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    high = draw(st.floats(low, 1.0, exclude_min=True))

    def usable(n):
        try:
            _subsample_range(n, k, (low, high), require_holdout=True)
        except ValidationError:
            return False
        return True

    usable_sizes = [n for n in range(1, _MAX_N + 1) if usable(n)]
    assume(usable_sizes)
    counts = dict(min_size=1, max_size=3, unique=True)
    return ExperimentConfig(
        sizes=draw(st.lists(st.sampled_from(usable_sizes), **counts)),
        trials=draw(st.lists(st.integers(1, 3), **counts)),
        k=k,
        repetitions=draw(st.integers(1, 3)),
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
        seed=draw(st.integers(0, 2**32 - 1)),
        fraction_range=(low, high),
        mu=draw(st.floats(-1e9, 1e9)),
        sigma2=draw(st.floats(1e-6, 1e6)),
        shared_streams=draw(st.booleans()),
    )


def _cell_bytes(cell):
    """A cell's every reported input, as raw float64 bytes."""
    return (
        cell.n,
        [cell.trials[m].tobytes() for m in sorted(cell.trials)],
        cell.fsv_iteration_losses.tobytes(),
    )


_relation = settings(max_examples=20, deadline=None)


@_relation
@given(small_configs())
def test_each_cell_of_a_grid_equals_it_run_alone(config):
    report = run_experiment(config, jobs=1)
    for cell in report.cells:
        alone = dataclasses.replace(config, sizes=(cell.n,), trials=(cell.t,))
        (only,) = run_experiment(alone, jobs=1).cells
        assert _cell_bytes(only) == _cell_bytes(cell)


@_relation
@given(small_configs())
def test_explicit_uniform_lambdas_equal_the_default_weights(config):
    explicit = dataclasses.replace(config, lambdas=(1.0,) * config.k)
    default = run_experiment(config, jobs=1)
    weighted = run_experiment(explicit, jobs=1)
    assert list(map(_cell_bytes, weighted.cells)) == list(
        map(_cell_bytes, default.cells)
    )


@_relation
@given(small_configs())
def test_a_report_survives_its_dict_round_trip(config):
    report = run_experiment(config, jobs=1)
    loaded = report_from_dict(report_to_dict(report))

    def dump(r):
        return json.dumps(report_to_dict(r), sort_keys=True)

    assert dump(loaded) == dump(report)
    assert list(map(_cell_bytes, loaded.cells)) == list(
        map(_cell_bytes, report.cells)
    )


@_relation
@given(small_configs(), st.data())
def test_reordering_sizes_only_reorders_cells(config, data):
    sizes = data.draw(st.permutations(config.sizes))
    reordered = dataclasses.replace(config, sizes=tuple(sizes))

    def keyed(c):
        cells = run_experiment(c, jobs=1).cells
        return {(cell.n, cell.t): _cell_bytes(cell) for cell in cells}

    assert keyed(reordered) == keyed(config)


@_relation
@given(small_configs())
def test_shared_streams_fsv_table_is_alpha_times_srs(config):
    shared = dataclasses.replace(config, shared_streams=True)
    for cell in run_experiment(shared, jobs=1).cells:
        want = shared.alpha * cell.trials["SRS"]
        assert cell.trials["FSV"].tobytes() == want.tobytes()


@_relation
@given(small_configs(), st.data())
def test_integer_reals_hash_like_their_float_twin(config, data):
    ints = data.draw(st.fixed_dictionaries({}, optional={
        "mu": st.integers(-10**9, 10**9),
        "sigma2": st.integers(1, 10**6),
        "alpha": st.just(1),
    }))
    assume(ints)
    given_ints = dataclasses.replace(config, **ints)
    twin = dataclasses.replace(
        config, **{name: float(v) for name, v in ints.items()}
    )
    assert given_ints.config_hash() == twin.config_hash()


@settings(max_examples=3, deadline=None)  # each example spins up a pool
@given(small_configs())
# the pool runs the largest n first: a grid whose sizes it reorders
@example(
    ExperimentConfig(sizes=(100, 200), trials=(1, 2), k=2, repetitions=1)
)
def test_two_workers_give_the_cells_of_one(config):
    serial = run_experiment(config, jobs=1)
    pooled = run_experiment(config, jobs=2)
    assert list(map(_cell_bytes, pooled.cells)) == list(
        map(_cell_bytes, serial.cells)
    )


# the power of the data's scale in each metric, in METRIC_FIELDS order:
# mean_est, var_est, mse, bias, roc_me, roc_ve
_SCALE_POWERS = np.array([1, 2, 2, 2, 1, 2])


@_relation
@given(small_configs(), st.integers(-2, 3))
def test_scaling_the_data_scales_every_metric(config, power):
    # scaling by a power of two is exact while nothing underflows; the
    # FSV row is alpha times a pass's metrics, so alpha must not be tiny
    assume(config.alpha > 1e-200)
    s = 2.0**power
    scaled = dataclasses.replace(
        config, mu=config.mu * s, sigma2=config.sigma2 * s * s
    )
    base = run_experiment(config, jobs=1)
    for cell, moved in zip(base.cells, run_experiment(scaled, jobs=1).cells):
        for method, table in cell.trials.items():
            want = table * s**_SCALE_POWERS
            assert moved.trials[method].tobytes() == want.tobytes()
        want = cell.fsv_iteration_losses * (s * s)
        assert moved.fsv_iteration_losses.tobytes() == want.tobytes()


def _cell_slacks(config, cell):
    """64 ulps of max|x| and 64 ulps of the centred sum of squares M2 of
    every dataset a cell's trials draw, at their largest: the rounding
    that summing near the data's magnitude, and subtracting from a
    dataset's M2, may leave in the cell's passes."""
    scales = []
    for trial in range(cell.t):
        for purpose in (Purpose.DATA, Purpose.FSV_DATA):
            values = generate_dataset(
                cell.n, config.mu, config.sigma2, derive_stream(
                    config.seed, _trial_key(cell.n, cell.t, trial), purpose
                ),
            ).values
            dev = values - values.mean()
            scales.append((np.abs(values).max(), (dev * dev).sum()))
    return 64 * np.spacing(np.max(scales, axis=0))


# how each metric, in METRIC_FIELDS order, rounds at a location shift:
# (squared, a quantity or a loss, which also moves by
# 2 sqrt(value) slack + slack**2, the shift that slack in a fitted mean
# causes; an absolute difference from sigma2, which rounds like what it
# subtracts from, at most itself plus sigma2; a holdout's loss, of as
# few as one point, taken from the dataset's totals less the
# subsample's, which also moves by ulps of the dataset's M2)
_LOCATION_ROUNDING = np.array([
    (False, False, False),  # mean_est
    (True, False, False),  # var_est
    (True, False, True),  # mse
    (True, True, False),  # bias
    (False, False, False),  # roc_me
    (True, True, False),  # roc_ve
]).T


@_relation
@given(small_configs(), st.floats(-1e9, 1e9))
def test_shifting_the_mean_moves_only_mean_est(config, c):
    shifted = dataclasses.replace(config, mu=config.mu + c)
    base = run_experiment(config, jobs=1)
    squared, from_sigma2, holdout = _LOCATION_ROUNDING
    for cell, moved in zip(base.cells, run_experiment(shifted, jobs=1).cells):
        slack, m2_slack = np.maximum(
            _cell_slacks(config, cell), _cell_slacks(shifted, cell)
        )
        # the FSV row is alpha-scaled, which only shrinks its rounding
        shifts = {"SRS": c, "KFCV": c, "FSV": config.alpha * c}
        for method, shift in shifts.items():
            want = cell.trials[method].copy()
            want[:, 0] += shift
            # relative 1e-9 plus the slacks the rounding may leave
            size = np.abs(want) + from_sigma2 * config.sigma2
            tol = (
                1e-9 * size + slack + holdout * m2_slack
                + squared * slack * (2 * np.sqrt(size) + slack)
            )
            assert (np.abs(moved.trials[method] - want) <= tol).all()
