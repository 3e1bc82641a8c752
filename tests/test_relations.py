"""Metamorphic relations of the study harness over random small configs.

Each relation compares two runs, so it needs no oracle and holds for
every config hypothesis draws: sizes up to 2 000, one to three trial
counts of 1-3 trials, k 2-6, 1-3 repetitions, any valid window, mu,
sigma2 and alpha, with or without shared streams, always at ``jobs=1``.
"""

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusionval.errors import ValidationError
from fusionval.harness import (
    ExperimentConfig,
    report_from_dict,
    report_to_dict,
    run_experiment,
)
from fusionval.kfold import _subsample_range

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
_low_alpha = pytest.mark.filterwarnings("ignore:alpha=.*far below 1")


@_low_alpha
@_relation
@given(small_configs())
def test_each_cell_of_a_grid_equals_it_run_alone(config):
    report = run_experiment(config, jobs=1)
    for cell in report.cells:
        alone = dataclasses.replace(config, sizes=(cell.n,), trials=(cell.t,))
        (only,) = run_experiment(alone, jobs=1).cells
        assert _cell_bytes(only) == _cell_bytes(cell)


@_low_alpha
@_relation
@given(small_configs())
def test_explicit_uniform_lambdas_equal_the_default_weights(config):
    explicit = dataclasses.replace(config, lambdas=(1.0,) * config.k)
    default = run_experiment(config, jobs=1)
    weighted = run_experiment(explicit, jobs=1)
    assert list(map(_cell_bytes, weighted.cells)) == list(
        map(_cell_bytes, default.cells)
    )


@_low_alpha
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
