"""The real and vector rules of ``fusionval.errors``. A real is checked
as the float the package keeps, so a real that no float holds, or whose
float breaks its rule, is refused with a ValidationError naming the
field, before any draw, and every config stores its reals as floats. An
array argument is a 1-D vector of reals, or of integers, of the length
its call needs; anything else is refused naming the field. No module
but ``errors`` writes an array check of its own, save ``metrics``'
stricter rule for the arrays a result stores, and no function calls a
pass's draw methods but the few the draw contract names."""

import ast
import contextlib
import dataclasses
import io
import math
import re
import tempfile
import warnings
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionval
from fusionval.cli import main
from fusionval.data import Dataset, generate_dataset
from fusionval.errors import (
    _MAX_ENTRIES, ValidationError, _count, _finite, _mean, _nonnegative,
    _number, _numbers, _positive, _vector,
)
from fusionval.estimator import ModelParams, fit, loss
from fusionval.fsv import FsvConfig, FsvResult, compound_measure, fsv_run
from fusionval.harness import (
    CellResult, ExperimentConfig, ExperimentReport, report_to_dict,
    run_experiment,
)
from fusionval.kfold import (
    FoldPlan, LambdaWeights, empirical_kfold_loss, kfold_losses,
    weighted_kfold_loss,
)
from fusionval.metrics import metric_table
from fusionval.rng import MAX_PURPOSE, RngStream, derive_stream
from fusionval.sampling import SampleView, inclusion_moments, srs_sample
from fusionval.theory import (
    VarianceBudget, chebyshev_tail, hoeffding_tail, srs_variance_component,
)

_HUGE = 10**400  # past the largest float, about 1.8e308
_TINY = Fraction(1, 10**400)  # a positive real whose float is 0.0
# two reals that differ but round to one double, 0.6
_ONE_DOUBLE = (Fraction(3, 5), Fraction(3, 5) + Fraction(1, 10**30))
_SMALL = dict(sizes=(100,), trials=(2,))
_SRC = Path(__file__).resolve().parents[1] / "src" / "fusionval"


class TestNoFloatHoldsIt:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: ExperimentConfig(mu=_HUGE), "mu"),
            (lambda: ExperimentConfig(sigma2=_HUGE), "sigma2"),
            (lambda: ExperimentConfig(k=2, lambdas=(_HUGE, 1)), "lambdas"),
            (lambda: chebyshev_tail(_HUGE), "k_dev"),
            (lambda: hoeffding_tail(_HUGE, 3, 0, 1), "epsilon"),
            (
                lambda: metric_table(0.0, 1.0, 1.0, _HUGE, 1.0, 1.0),
                "true_mean",
            ),
        ],
        ids=["mu", "sigma2", "lambdas", "k_dev", "epsilon", "true_mean"],
    )
    def test_is_refused_naming_the_field(self, build, field):
        with pytest.raises(ValidationError, match=f"^{field} .*float"):
            build()

    def test_generate_dataset_refuses_it_before_drawing(self):
        stream = RngStream(3, 0)
        state = stream.generator.bit_generator.state
        with pytest.raises(ValidationError, match="^mu .*float"):
            generate_dataset(10, _HUGE, 1.0, stream)
        assert stream.generator.bit_generator.state == state

    @pytest.mark.parametrize(
        "rule", [_number, _finite, _positive, _nonnegative]
    )
    @pytest.mark.parametrize(
        "value",
        [_HUGE, -_HUGE, Fraction(_HUGE, 3)],
        ids=["huge", "minus-huge", "huge-fraction"],
    )
    def test_no_real_rule_lets_an_overflow_escape(self, rule, value):
        with pytest.raises(ValidationError, match="^x must be"):
            rule("x", value)
        with pytest.raises(ValidationError, match="^x entry must be"):
            _numbers("x", [1.0, value])

    def test_a_count_may_exceed_every_float(self):
        assert _count("seed", _HUGE, 0) == _HUGE
        with pytest.raises(ValidationError, match="^k must be"):
            _count("k", Fraction(_HUGE, 3), 2)


class TestRefusedAtConstruction:
    """Reals whose float breaks the rule its value keeps: each config
    refuses them rather than storing the broken float."""

    def test_alpha_whose_float_is_zero(self):
        with pytest.raises(ValidationError, match=r"^alpha .*\(0, 1\]"):
            ExperimentConfig(**_SMALL, alpha=_TINY)
        with pytest.raises(ValidationError, match=r"^alpha .*\(0, 1\]"):
            FsvConfig(3, alpha=_TINY)

    def test_sigma2_whose_float_is_zero(self):
        with pytest.raises(ValidationError, match="^sigma2 .*> 0"):
            ExperimentConfig(**_SMALL, sigma2=_TINY)

    @pytest.mark.parametrize(
        "window",
        [_ONE_DOUBLE, (_TINY, 0.5)],
        ids=["entries-one-double", "low-whose-float-is-zero"],
    )
    def test_window_whose_floats_break_the_rule(self, window):
        rule = "^fraction_range must satisfy 0 < low < high <= 1"
        with pytest.raises(ValidationError, match=rule):
            FsvConfig(3, fraction_range=window)
        with pytest.raises(ValidationError, match=rule):
            ExperimentConfig(**_SMALL, fraction_range=window)


    @pytest.mark.parametrize(
        "wall", [float("nan"), -1.0, _HUGE], ids=["nan", "negative", "huge"]
    )
    def test_report_wall_time(self, wall):
        report = run_experiment(ExperimentConfig(**_SMALL, k=2), jobs=1)
        with pytest.raises(ValidationError, match="^wall_time_s must be"):
            ExperimentReport(report.config, report.cells, wall)
        again = ExperimentReport(report.config, report.cells, 2)
        assert type(again.wall_time_s) is float


class TestStoredAsFloats:
    def test_fsv_config_alpha(self):
        config = FsvConfig(3, alpha=Fraction(9, 10))
        assert type(config.alpha) is float and config.alpha == 0.9
        assert type(FsvConfig(1, alpha=1).alpha) is float
        data = generate_dataset(200, 0.0, 1.0, RngStream(5, 0))
        got = fsv_run(data, config, RngStream(5, 1))
        want = fsv_run(data, FsvConfig(3, alpha=0.9), RngStream(5, 1))
        assert got.alpha == 0.9
        assert got.metrics.tobytes() == want.metrics.tobytes()

    def test_every_experiment_config_real(self):
        config = ExperimentConfig(
            **_SMALL,
            k=2,
            mu=Fraction(1, 3),
            sigma2=np.float32(2.5),
            alpha=1,
            lambdas=(np.int64(1), Fraction(1)),
            fraction_range=(Fraction(3, 5), np.float16(0.75)),
        )
        reals = (
            config.mu, config.sigma2, config.alpha,
            *config.lambdas, *config.fraction_range,
        )
        assert all(type(v) is float for v in reals)
        assert config.mu == float(Fraction(1, 3))
        assert config.sigma2 == 2.5

    def test_a_cell_keeps_the_float_its_config_keeps(self):
        config = ExperimentConfig(**_SMALL, k=2, alpha=Fraction(19, 20))
        report = run_experiment(config, jobs=1)
        (cell,) = report.cells
        again = CellResult(
            cell.n, cell.table.tolist(), cell.fsv_iteration_losses.tolist()
        )
        assert again.table.dtype == np.float64
        # the cell's L* is compounded with the config's float alpha
        (stored,) = report_to_dict(
            ExperimentReport(report.config, [again], 1.0)
        )["cells"]
        lstar = compound_measure(cell.fsv_iteration_losses, 0.95)
        assert type(stored["fsv_compounded"]) is float
        assert stored["fsv_compounded"] == lstar

    def test_value_types_keep_floats(self):
        stream = RngStream(1, 0)
        data = generate_dataset(5, Fraction(1, 2), np.int64(2), stream)
        assert type(data.true_mean) is float and data.true_mean == 0.5
        assert type(data.true_var) is float and data.true_var == 2.0
        budget = VarianceBudget(Fraction(1, 4), 1, 2)
        assert type(budget.srs_component) is float
        assert type(budget.kfcv_component) is float
        assert budget.total_per_t == 0.625
        result = FsvResult(np.ones(2), np.zeros((2, 6)), Fraction(19, 20))
        assert type(result.alpha) is float and result.alpha == 0.95


# every boundary that bounds a count from above: the field, a call with
# the count in its place, and the largest count it takes
_TEN_POINTS = Dataset(np.arange(10.0), 0.0, 1.0)
_COUNT_RANGES = {
    "srs_sample": (
        "m", lambda v: srs_sample(_TEN_POINTS, v, RngStream(1, 0)), 10,
    ),
    "inclusion_moments": ("m", lambda v: inclusion_moments(10, v), 10),
    "srs_variance_component": (
        "n", lambda v: srs_variance_component(1.0, v, 200), 200,
    ),
    "derive_stream": (
        "purpose_tag", lambda v: derive_stream(1, 0, v), MAX_PURPOSE - 1,
    ),
    "FoldPlan": ("k", lambda v: FoldPlan(np.arange(4), v), 4),
}


@pytest.mark.parametrize("site", sorted(_COUNT_RANGES))
def test_every_count_range_is_the_count_rule(site):
    # accepted at its bound, refused one above it naming the field
    field, call, most = _COUNT_RANGES[site]
    call(most)
    want = f"{field} must be <= {most}, got {most + 1}"
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        call(most + 1)


_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(-(10**300), 10**300),
    st.integers(-(2**1000), 2**1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(
        np.float32
    ),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
)


@given(_reals)
def test_real_mode_returns_the_float_of_the_value(value):
    got = _number("x", value)
    assert type(got) is float
    assert got == float(value)


# every public entry point that takes an array argument: the field it
# names, a call with the argument in its place, whether its entries are
# integers, and the fewest and most entries it takes (None: no bound)
_PLAN, _WEIGHTS = FoldPlan(np.arange(4), 2), LambdaWeights(np.ones(2))
_VECTOR_ARGS = {
    "Dataset": ("values", lambda v: Dataset(v, 0.0, 1.0), False, 1, None),
    "fit": ("train", fit, False, 2, None),
    "loss": (
        "validation", lambda v: loss(ModelParams(0.0, 1.0), v), False, 1,
        None,
    ),
    "compound_measure": (
        "iteration_losses", lambda v: compound_measure(v, 0.95), False, 1,
        None,
    ),
    "kfold_losses": ("sample", lambda v: kfold_losses(v, _PLAN), False, 4, 4),
    "empirical_kfold_loss": ("losses", empirical_kfold_loss, False, 1, None),
    "LambdaWeights": ("lambdas", LambdaWeights, False, 1, None),
    "weighted_kfold_loss": (
        "losses", lambda v: weighted_kfold_loss(v, _WEIGHTS), False, 2, 2,
    ),
    "FoldPlan": ("order", lambda v: FoldPlan(v, 2), True, 1, None),
    "SampleView": ("indices", lambda v: SampleView(v, 5), True, 1, 5),
    "metric_table-mean_est": (
        "mean_est", lambda v: metric_table(v, 1.0, 1.0, 0.0, 1.0, 1.0),
        False, 1, None,
    ),
    "metric_table-var_est": (
        "var_est",
        lambda v: metric_table([0.0, 0.0], v, [1.0, 1.0], 0.0, 1.0, 1.0),
        False, 2, 2,
    ),
}


def _malformed(integral: bool, least: int, most: int | None) -> dict:
    """Arguments an entry point must refuse, keyed by what is wrong;
    each holds ``least`` entries unless its length is what is wrong, or
    but for one bool, at least 2 valid entries ("mixed-" cases)."""
    def entries(count):
        return np.arange(count) if integral else np.ones(count)

    def mixed(true):
        # a valid list but for its second entry; numpy reads True as 1
        listed = entries(max(least, 2)).tolist()
        listed[1] = true
        return listed

    fine = entries(least)
    bad = {
        "str": ["0"] * least,
        "complex": [1j] * least,
        "object": np.array(list(fine), dtype=object),
        "bool": [True] * least,
        "mixed-bool": mixed(True),
        "mixed-numpy-bool": mixed(np.True_),
        "nested-bool-array": mixed(np.array(True)),
        "ragged": [[0], [0, 1]] + [[0]] * least,
        "2-D": np.stack([fine, fine], axis=1),
        "too-few": entries(least - 1),
    }
    if most is not None:
        bad["too-many"] = entries(most + 1)
    return bad


@pytest.mark.parametrize(
    "entry, what, value",
    [
        pytest.param(entry, what, value, id=f"{entry}-{what}")
        for entry, (_, _, integral, least, most) in _VECTOR_ARGS.items()
        for what, value in _malformed(integral, least, most).items()
    ],
)
def test_every_array_argument_is_refused_naming_its_field(entry, what, value):
    field, call = _VECTOR_ARGS[entry][:2]
    with pytest.raises(ValidationError, match=f"^{field} "):
        call(value)


def test_a_list_builds_what_its_array_builds():
    for build, field, entries in (
        (lambda v: SampleView(v, 5), "indices", [0, 2, 3]),
        (lambda v: FoldPlan(v, 2), "order", [2, 0, 3, 1]),
        (lambda v: Dataset(v, 0.0, 1.0), "values", [0.5, -2.0, 3.0]),
    ):
        listed = getattr(build(entries), field)
        arrayed = getattr(build(np.array(entries)), field)
        assert isinstance(listed, np.ndarray)
        assert listed.dtype == arrayed.dtype
        np.testing.assert_array_equal(listed, arrayed)
        assert not listed.flags.writeable


@pytest.mark.parametrize(
    "values",
    [np.ones(3, bool), [np.ones(3, bool)], [[0.5], [np.array(True)]]],
    ids=["bool-array", "nested-bool-array", "deep-bool-0-d"],
)
def test_a_bool_array_is_a_bool_entry_at_any_depth(values):
    with pytest.raises(ValidationError, match=r"^x must .*, got a bool entry$"):
        _vector("x", values)


def test_an_accepted_array_is_returned_as_given():
    for values, integral in ((np.ones(3), False), (np.arange(3), True)):
        assert _vector("x", values, integral=integral) is values


# The admitted domain of every public parameter, in one table, _DOMAIN.
# A row is one public call, or one CLI command: the call, taking its
# parameters by name, and for each parameter a usual value and a
# strategy over the whole float64 range (both signs of 0, of the least
# subnormal and normal, of the largest float and of inf, and nan) or,
# for a count or a window, over the values at and around its edges.
# Every row meets one contract (_keeps_the_contract): a call is refused
# with a ValidationError whose message starts with the name of a
# parameter, or it returns only finite floats, and warns nothing either
# way. A float-range finding is a row of _FINDINGS, not a test of its own.
_MAX = float(np.finfo(np.float64).max)
_EDGES = [
    sign * value
    for value in (
        0.0, 5e-324, 2.2250738585072014e-308, 1e-200, 0.5, 1.0, 2.0, 1e200,
        _MAX, math.inf,
    )
    for sign in (1.0, -1.0)
] + [math.nan]
_REAL = st.one_of(st.sampled_from(_EDGES), st.floats())
_FINITE = st.one_of(
    st.sampled_from([e for e in _EDGES if math.isfinite(e)]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _near(*edges, big=False):
    """A count at or one off one of ``edges``, as an int or an integral
    float; ``big`` adds any count up to and past the largest float, for
    a count that sizes no allocation."""
    near = st.sampled_from(sorted({e + d for e in edges for d in (-1, 0, 1)}))
    counts = st.one_of(near, near.map(float))
    if big:
        counts |= st.one_of(
            st.integers(0, _HUGE),
            st.sampled_from([1e308, _MAX, int(_MAX), int(_MAX) + 1, _HUGE]),
        )
    return counts


def _reals(least=1, most=3):
    """Vectors of reals, as often all finite as not."""
    return st.one_of(*(
        st.lists(entry, min_size=least, max_size=most)
        for entry in (_REAL, _FINITE)
    ))


_WINDOW = st.one_of(
    st.tuples(_REAL, _REAL),
    st.sampled_from([
        (0.6, 0.9), (0.5, 1.0), (0.0, 1.0), (5e-324, 1.0), (0.9, 0.6),
        (0.6, float(np.nextafter(1.0, 2.0))), (0.6, 0.6),
    ]),
)
_PATTERN = np.sin(np.arange(24) * 2.0)
# a pass count past _MAX_ENTRIES // k at every k from 2, for a call that
# would allocate its passes: a count the call takes would size arrays
# no machine holds
_PAST_PASSES = st.just(_MAX_ENTRIES // 2 + 1)


def _spread(centre, scale, n, true_var):
    """A dataset of n points, ``_PATTERN`` times ``scale`` about
    ``centre``, its true mean, or None where ``Dataset`` refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = centre + scale * _PATTERN[:n]
    try:
        return Dataset(values, centre, true_var)
    except ValidationError:
        return None


def _datasets(least, most):
    """Datasets the kernel takes, from 0 to the widest, at any centre."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.builds(
        _spread,
        st.one_of(st.sampled_from([0.0, -_MAX / 2, _MAX]), finite),
        st.one_of(
            st.sampled_from([0.0, 5e-324, 1.0, 1e150]), st.floats(0, 1e150)
        ),
        st.integers(least, most),
        st.one_of(st.sampled_from([5e-324, 1.0, _MAX]), st.floats(1e-300)),
    ).filter(lambda data: data is not None)


def _report(alpha, table, losses, wall_time_s):
    """A one-cell report of n=20 and t=2 holding the given values, the
    12 entries of ``table`` for each method."""
    config = ExperimentConfig(sizes=(20,), trials=(2,), alpha=alpha)
    rows = np.reshape(table, (2, 1, 6))
    cell = CellResult(20, np.repeat(rows, 3, axis=1), np.array(losses))
    return ExperimentReport(config, [cell], wall_time_s)


_REPORTS = st.builds(
    _report,
    st.one_of(st.sampled_from([5e-324, 0.5, 1.0]), st.floats(5e-324, 1.0)),
    st.lists(_FINITE, min_size=12, max_size=12),
    st.lists(_FINITE, min_size=2, max_size=2),
    st.floats(0, allow_infinity=False),
)
_TWENTY = Dataset(_PATTERN[:20], 0.0, 0.5)
_ONE_CELL = _report(0.95, np.zeros(12), [0.0, 1.0], 0.0)


def _in_scratch(emit):
    """``emit(report, directory)`` into a fresh temporary directory."""
    def call(report):
        with tempfile.TemporaryDirectory() as out:
            return emit(report, out)
    return call


def _cli(command, **flags):
    """``fusionval <command>`` with each flag given a value, as
    ``--flag=value``, so that a value with a leading minus parses; a
    None flag is left out. Its exit status and what it wrote."""
    argv = [command] + [
        f"--{key.replace('_', '-')}={value!r}".replace("'", "")
        for key, value in flags.items() if value is not None
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _Exit(code, out.getvalue(), err.getvalue())


class _Exit(NamedTuple):
    code: int
    out: str
    err: str


class _Row(NamedTuple):
    call: Callable
    params: dict  # parameter name -> (a usual value, its strategy)
    # more names a refusal may start with: the fields of what it builds
    names: tuple = ()
    where: str = ""  # a location a refusal may open with


def _study(command, mu, sigma2, **flags):
    """A study command on one worker; ``mu`` and ``sigma2``, which have
    no flags, go in by its config file."""
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "study.cfg"
        config.write_text(f"mu = {mu!r}\nsigma2 = {sigma2!r}\n")
        return _cli(command, config=str(config), jobs=1, **flags)


_STUDY = dict(
    alpha=(0.95, _REAL), mu=(0.0, _REAL), sigma2=(1.0, _REAL),
    fraction_range=((0.6, 0.9), _WINDOW),
)
_CLI_STUDY = dict(
    alpha=(0.95, _REAL), mu=(0.0, _REAL), sigma2=(1.0, _REAL),
    k=(2, _near(2, 3).map(int)), reps=(1, _near(1).map(int)),
    seed=(0, _near(0).map(int)), shared_streams=(False, st.booleans()),
)
_DOMAIN = {
    "RngStream": _Row(
        fusionval.RngStream,
        dict(seed=(1, _near(0, big=True)), stream_id=(0, _near(0, big=True))),
    ),
    "derive_stream": _Row(
        fusionval.derive_stream,
        dict(
            base_seed=(1, _near(0, big=True)),
            trial_index=(0, _near(0, big=True)),
            purpose_tag=(0, _near(0, MAX_PURPOSE - 1, big=True)),
        ),
        names=("seed",),  # the stream's
    ),
    "standard_normal": _Row(
        lambda count: fusionval.standard_normal(RngStream(1, 0), count),
        dict(count=(2, _near(0, 1))),
    ),
    "Dataset": _Row(
        fusionval.Dataset,
        dict(
            values=([0.0, 1.0], st.one_of(
                _reals(0, 3), _datasets(1, 3).map(lambda data: data.values)
            )),
            true_mean=(0.5, _REAL), true_var=(1.0, _REAL),
        ),
    ),
    "generate_dataset": _Row(
        lambda n, mu, sigma2: fusionval.generate_dataset(
            n, mu, sigma2, RngStream(1, 0)
        ),
        dict(n=(5, _near(1, 8)), mu=(0.0, _REAL), sigma2=(1.0, _REAL)),
        names=("values",),  # the dataset's
    ),
    "SampleView": _Row(
        fusionval.SampleView,
        dict(
            indices=([0, 2], st.lists(st.integers(-1, 6), max_size=4)),
            source_n=(5, _near(1, 5, big=True)),
        ),
    ),
    "srs_sample": _Row(
        lambda m: fusionval.srs_sample(_TEN_POINTS, m, RngStream(1, 0)),
        dict(m=(5, _near(1, 10, big=True))),
    ),
    "holdout_values": _Row(
        lambda view: fusionval.holdout_values(_TEN_POINTS, view),
        dict(view=(
            SampleView([0, 3], 10),
            st.builds(SampleView, st.just([0, 3]), _near(10)),
        )),
    ),
    "inclusion_moments": _Row(
        fusionval.inclusion_moments,
        dict(n=(10, _near(1, 10, big=True)), m=(5, _near(1, 10, big=True))),
    ),
    "draw_partition_fraction": _Row(
        lambda low, high: fusionval.draw_partition_fraction(
            RngStream(1, 0), low, high
        ),
        dict(low=(0.6, _REAL), high=(0.9, _REAL)),
        names=("fraction_range",),  # the window's rule
    ),
    "fit": _Row(
        fusionval.fit,
        dict(train=([0.0, 1.0, 3.0], st.one_of(
            _reals(1, 3), _datasets(2, 5).map(lambda data: data.values)
        ))),
    ),
    "loss": _Row(
        lambda fitted_mean, fitted_var, validation: fusionval.loss(
            ModelParams(fitted_mean, fitted_var), validation
        ),
        dict(
            fitted_mean=(0.5, _REAL), fitted_var=(1.0, _REAL),
            validation=([0.0, 2.0], _reals(0, 3)),
        ),
    ),
    "FoldPlan": _Row(
        fusionval.FoldPlan,
        dict(
            order=([2, 0, 3, 1], st.lists(st.integers(-1, 4), max_size=4)),
            k=(2, _near(2, 4, big=True)),
        ),
    ),
    "LambdaWeights": _Row(
        fusionval.LambdaWeights,
        dict(lambdas=([1.0, 1.0], st.one_of(
            _reals(0, 2),
            st.sampled_from([[2.0, 0.0], [0.5, 1.5], [_MAX, 0.0]]),
        ))),
    ),
    "make_folds": _Row(
        lambda sample_size, k: fusionval.make_folds(
            sample_size, k, RngStream(1, 0)
        ),
        dict(sample_size=(5, _near(2, 6)), k=(2, _near(2, 6, big=True))),
    ),
    "kfold_losses": _Row(
        lambda sample: fusionval.kfold_losses(sample, _PLAN),
        dict(sample=([0.0, 1.0, 3.0, 2.0], st.one_of(
            _reals(4, 4), _datasets(4, 4).map(lambda data: data.values)
        ))),
    ),
    "empirical_kfold_loss": _Row(
        fusionval.empirical_kfold_loss, dict(losses=([1.0, 2.0], _reals(0, 3)))
    ),
    "weighted_kfold_loss": _Row(
        lambda losses, lambdas: fusionval.weighted_kfold_loss(
            losses, LambdaWeights(lambdas)
        ),
        dict(
            losses=([1.0, 2.0], _reals(2, 2)),
            lambdas=([1.0, 1.0], st.sampled_from([[2.0, 0.0], [0.5, 1.5]])),
        ),
    ),
    "repeated_kfcv": _Row(
        lambda data, repetitions, k, fraction_range: fusionval.repeated_kfcv(
            data, repetitions, LambdaWeights.uniform(k), RngStream(1, 0),
            fraction_range,
        ),
        dict(
            data=(_TWENTY, _datasets(4, 24)),
            repetitions=(2, _near(1, 2) | _PAST_PASSES),
            k=(2, _near(2, 3)), fraction_range=((0.6, 0.9), _WINDOW),
        ),
    ),
    "FsvConfig": _Row(
        fusionval.FsvConfig,
        dict(
            iterations=(3, _near(1, _MAX_ENTRIES // 2, big=True)),
            alpha=(0.95, _REAL), k=(2, _near(2, _MAX_ENTRIES, big=True)),
            fraction_range=((0.6, 0.9), _WINDOW),
        ),
    ),
    "FsvResult": _Row(
        # the lists as drawn, the table as two rows of six
        lambda iteration_losses, metrics, alpha: fusionval.FsvResult(
            iteration_losses, [metrics[:6], metrics[6:]], alpha
        ),
        dict(
            iteration_losses=([1.0, 2.0], _reals(0, 3)),
            metrics=([0.5] * 12, _reals(12, 12)), alpha=(0.95, _REAL),
        ),
    ),
    "sampled_kfold_trial": _Row(
        lambda data, k, fraction_range: fusionval.sampled_kfold_trial(
            data, k, RngStream(1, 0), folds_stream=RngStream(1, 1),
            fraction_stream=RngStream(1, 2), fraction_range=fraction_range,
        ),
        dict(
            data=(_TWENTY, _datasets(4, 24)), k=(2, _near(2, 3, big=True)),
            fraction_range=((0.6, 0.9), _WINDOW),
        ),
    ),
    "compound_measure": _Row(
        fusionval.compound_measure,
        dict(iteration_losses=([1.0, 2.0], _reals(0, 3)), alpha=(0.95, _REAL)),
    ),
    "fsv_run": _Row(
        lambda data, iterations, alpha, k, fraction_range: fusionval.fsv_run(
            data, FsvConfig(iterations, alpha, k, fraction_range),
            RngStream(1, 0),
        ),
        dict(
            data=(_TWENTY, _datasets(4, 24)),
            iterations=(2, _near(1, 2) | _PAST_PASSES),
            alpha=(0.95, _REAL), k=(2, _near(2, 3)),
            fraction_range=((0.6, 0.9), _WINDOW),
        ),
    ),
    "VarianceBudget": _Row(
        fusionval.VarianceBudget,
        dict(
            srs_component=(0.1, _REAL), kfcv_component=(0.2, _REAL),
            iterations=(3, _near(1, big=True)),
        ),
    ),
    "srs_variance_component": _Row(
        fusionval.srs_variance_component,
        dict(
            sigma2=(1.0, _REAL), n=(150, _near(1, 200, big=True)),
            population_n=(200, _near(1, 200, big=True)),
        ),
    ),
    "kfcv_variance_component": _Row(
        fusionval.kfcv_variance_component,
        dict(fold_variances=([0.1, 0.2], _reals(0, 3))),
    ),
    "hybrid_variance": _Row(
        fusionval.hybrid_variance,
        dict(
            sigma2=(1.0, _REAL), n=(150, _near(1, 200, big=True)),
            population_n=(200, _near(1, 200, big=True)),
            fold_variances=([0.1, 0.2], _reals(0, 3)),
            iterations=(3, _near(1, big=True)),
        ),
        names=("srs_component",),  # the budget's sum of its components
    ),
    "chebyshev_tail": _Row(
        fusionval.chebyshev_tail, dict(k_dev=(2.0, _REAL))
    ),
    "chebyshev_threshold": _Row(
        fusionval.chebyshev_threshold,
        dict(
            sigma_hyb2=(1.0, _REAL), iterations=(3, _near(1, big=True)),
            k_dev=(2.0, _REAL),
        ),
    ),
    "hoeffding_tail": _Row(
        fusionval.hoeffding_tail,
        dict(
            epsilon=(0.1, _REAL), iterations=(3, _near(1, big=True)),
            a=(0.0, _REAL), b=(4.0, _REAL),
        ),
    ),
    "trial_metrics": _Row(
        fusionval.trial_metrics,
        dict(
            mean_est=(0.5, _REAL), var_est=(1.5, _REAL), mse=(2.0, _REAL),
            true_mean=(0.0, _REAL), true_var=(1.0, _REAL),
            fold_loss_for_bias=(1.2, _REAL),
        ),
    ),
    "metric_table": _Row(
        fusionval.metric_table,
        dict(
            mean_est=([0.5, 0.1], _reals(1, 2)),
            var_est=([1.5, 0.9], _reals(1, 2)),
            mse=([2.0, 1.1], _reals(1, 2)),
            true_mean=(0.0, _REAL), true_var=(1.0, _REAL),
            fold_loss_for_bias=([1.2, 0.8], _reals(1, 2)),
        ),
    ),
    "summarize": _Row(
        fusionval.summarize,
        dict(table=(
            [[0.5] * 6, [1.5] * 6],
            st.lists(_reals(6, 6), min_size=1, max_size=2),
        )),
    ),
    "ExperimentConfig": _Row(
        fusionval.ExperimentConfig,
        dict(
            sizes=((20,), st.lists(_near(1, 20, big=True), max_size=2)),
            trials=((2,), st.lists(_near(1, big=True), max_size=2)),
            k=(2, _near(2, _MAX_ENTRIES, big=True)),
            repetitions=(2, _near(1, _MAX_ENTRIES // 2, big=True)),
            lambdas=(None, _reals(2, 2)), seed=(1, _near(0, big=True)),
            shared_streams=(False, st.booleans()), **_STUDY,
        ),
    ),
    "CellResult": _Row(
        # the list as drawn, nested as a caller would: two trials of
        # three methods' rows of six
        lambda n, table, fsv_iteration_losses: fusionval.CellResult(
            n,
            [
                [table[at:at + 6] for at in range(trial, trial + 18, 6)]
                for trial in (0, 18)
            ],
            fsv_iteration_losses,
        ),
        dict(
            n=(20, _near(1, big=True)),
            table=([0.5] * 36, _reals(36, 36)),
            fsv_iteration_losses=([1.0, 2.0], _reals(0, 3)),
        ),
        # a cell names its arrays after its location, t once its losses
        # have given it
        where=r"cell \(n=\S+(, t=\d+)?\) ",
    ),
    "ExperimentReport": _Row(
        lambda wall_time_s: fusionval.ExperimentReport(
            _ONE_CELL.config, _ONE_CELL.cells, wall_time_s
        ),
        dict(wall_time_s=(1.0, _REAL)),
    ),
    "run_experiment": _Row(
        lambda sizes, trials, jobs, **config: fusionval.run_experiment(
            ExperimentConfig(sizes=[sizes], trials=[trials], **config), jobs
        ),
        dict(
            sizes=(20, _near(20)), trials=(2, _near(1)),
            jobs=(1, st.sampled_from([0, 1.0])), k=(2, _near(2, 3)),
            repetitions=(1, _near(1)), **_STUDY,
        ),
    ),
    "emit_markdown_table": _Row(
        fusionval.emit_markdown_table,
        dict(report=(_ONE_CELL, _REPORTS), n=(20, _near(20))),
    ),
    "emit_csv": _Row(
        _in_scratch(fusionval.emit_csv), dict(report=(_ONE_CELL, _REPORTS))
    ),
    "emit_json": _Row(
        _in_scratch(lambda report, out: fusionval.emit_json(
            report, Path(out) / "report.json"
        )),
        dict(report=(_ONE_CELL, _REPORTS)),
    ),
    "report_to_dict": _Row(
        fusionval.report_to_dict, dict(report=(_ONE_CELL, _REPORTS))
    ),
    "report_from_dict": _Row(
        lambda report: fusionval.report_from_dict(
            fusionval.report_to_dict(report)
        ),
        dict(report=(_ONE_CELL, _REPORTS)),
    ),
    "cli-theory": _Row(
        lambda **flags: _cli("theory", **flags),
        dict(
            n=(10, _near(1, 10, big=True).map(int)),
            population=(20, _near(1, 10, big=True).map(int)),
            sigma2=(1.0, _REAL), fold_vars=(0.1, _REAL),
            t=(10, _near(1, big=True).map(int)), k_dev=(2.0, _REAL),
            epsilon=(0.1, _REAL), low=(0.0, _REAL), high=(4.0, _REAL),
        ),
    ),
    "cli-cell": _Row(
        lambda **flags: _study("cell", **flags),
        dict(
            n=(20, _near(20).map(int)), t=(2, _near(1, 2).map(int)),
            **_CLI_STUDY,
        ),
    ),
    "cli-run": _Row(
        lambda sizes, trials, **flags: _study(
            "run", sizes=",".join(map(str, sizes)),
            trials=",".join(map(str, trials)), **flags
        ),
        dict(
            sizes=(
                [20], st.lists(_near(20).map(int), min_size=1, max_size=2)
            ),
            trials=([2], st.lists(_near(1).map(int), min_size=1, max_size=2)),
            **_CLI_STUDY,
        ),
    ),
}

# the public names no row drives: records that hold what they are given,
# enums, the exception type and constants
_NO_DOMAIN = {
    "__version__", "ValidationError", "MAX_PURPOSE", "Purpose",
    "FRACTION_RANGE", "ModelParams", "KfcvEstimate", "DEFAULT_ALPHA",
    "SampledTrial", "TailBound", "METRIC_FIELDS", "Method", "TrialMetrics",
    "Aggregate",
}

# Calls found outside the contract, each the row it belongs to and its
# arguments, or once checked by a test of their own, which also gives
# the start of the refusal the call must meet.
_FINDINGS = {
    # k_dev * k_dev underflowed to 0, and 1 / 0 raised
    "chebyshev_tail-underflow": ("chebyshev_tail", dict(k_dev=1e-200)),
    "theory-k_dev-underflow": (
        "cli-theory", dict(n=10, population=20, k_dev=1e-200),
    ),
    "hoeffding_tail-underflow": (
        "hoeffding_tail", dict(epsilon=1.0, iterations=10, a=0.0, b=5e-324),
    ),
    # epsilon**2 and width**2 both overflowed, to inf / inf
    "hoeffding_tail-overflow": (
        "hoeffding_tail", dict(epsilon=1e200, iterations=1, a=-1e200, b=1e200),
    ),
    "chebyshev_threshold-overflow": (
        "chebyshev_threshold",
        dict(sigma_hyb2=1e308, iterations=1, k_dev=1e308),
    ),
    "metric_table-overflow": (
        "metric_table",
        dict(
            mean_est=[1e308], var_est=[1e308], mse=[1e308], true_mean=-1e308,
            true_var=1e308, fold_loss_for_bias=[1e308],
        ),
    ),
    # alpha above 1 took the measure past float max
    "compound_measure-alpha-above-one": (
        "compound_measure", dict(iteration_losses=[1e308, 1e308], alpha=1e10),
    ),
    # the mean of five float maxes rounded one ulp low, and fit's
    # squared deviations from it overflowed
    "fit-mean-rounding": ("fit", dict(train=[_MAX] * 5)),
    # the weights' plain sum overflowed, with a warning
    "LambdaWeights-sum-overflow": (
        "LambdaWeights", dict(lambdas=[_MAX, _MAX]),
    ),
    # loading a saved report warned of its config's low alpha again
    "report_from_dict-low-alpha": (
        "report_from_dict",
        dict(report=_report(0.5, np.zeros(12), [0.0, 1.0], 0.0)),
    ),
    # a count past the float maximum escaped as an OverflowError where
    # it became a float
    "chebyshev_threshold-huge-count": (
        "chebyshev_threshold",
        dict(sigma_hyb2=1.0, iterations=_HUGE, k_dev=2.0),
        "iterations must be at most the float maximum",
    ),
    "hoeffding_tail-huge-count": (
        "hoeffding_tail",
        dict(epsilon=0.1, iterations=_HUGE, a=0.0, b=1.0),
        "iterations must be at most the float maximum",
    ),
    "ExperimentConfig-huge-size": (
        "ExperimentConfig", dict(sizes=(_HUGE,), trials=(2,)),
        f"sizes entry must be <= {_MAX_ENTRIES}",
    ),
    # a trial count sizes its cell's tables and losses, but had no
    # ceiling: run_experiment listed every trial task until memory ran
    # out
    "ExperimentConfig-trials-entries": (
        "ExperimentConfig", dict(sizes=(20,), trials=(10**21,), k=2),
        f"trials entry must be <= {_MAX_ENTRIES}",
    ),
    # exits 2 with one error: line, before the study runs
    "cli-cell-trials-entries": (
        "cli-cell", dict(n=20, t=10**21, k=2, mu=0.0, sigma2=1.0),
    ),
    "srs_variance_component-huge-count": (
        "srs_variance_component",
        dict(sigma2=1.0, n=_HUGE, population_n=_HUGE),
        "population_n must be at most the float maximum",
    ),
    "inclusion_moments-huge-count": (
        "inclusion_moments", dict(n=_HUGE, m=_HUGE // 10),
        "n must be at most the float maximum",
    ),
    "VarianceBudget-huge-count": (
        "VarianceBudget",
        dict(srs_component=0.0, kfcv_component=0.0, iterations=_HUGE),
        "iterations must be at most the float maximum",
    ),
    "theory-huge-t": ("cli-theory", dict(n=10, population=20, t=_HUGE)),
    # a repetition count past _MAX_ENTRIES // k (the test below) exits 2
    # with one error: line, before the study runs
    "cli-run-reps-entries": (
        "cli-run",
        dict(
            sizes=[20], trials=[1], k=2, reps=_MAX_ENTRIES // 2 + 1,
            mu=0.0, sigma2=1.0,
        ),
    ),
    # the per-site tests these rows replace checked the same refusals
    "srs_variance_component-sigma2-inf": (
        "srs_variance_component",
        dict(sigma2=math.inf, n=10, population_n=10),
        "sigma2 must be finite",
    ),
    "srs_variance_component-sigma2-nan": (
        "srs_variance_component",
        dict(sigma2=math.nan, n=10, population_n=10),
        "sigma2 must be finite",
    ),
    "kfcv_variance_component-inf-entry": (
        "kfcv_variance_component", dict(fold_variances=[0.1, math.inf]),
    ),
    "fit-span-overflow": (
        "fit", dict(train=[1e308, -1e308]), "train must span at most",
    ),
    # a count past the most entries an array holds escaped as numpy's
    # bare ValueError, "Maximum allowed dimension exceeded" or, at 2**62,
    # "array is too big"; numpy refused both before allocating anything
    **{
        f"{row}-{label}-entries": (row, args, *refusal)
        for label, size in (("10**21", 10**21), ("2**62", 2**62))
        for row, args, *refusal in (
            (
                "generate_dataset", dict(n=size, mu=0.0, sigma2=1.0),
                f"n must be <= {_MAX_ENTRIES}",
            ),
            (
                "standard_normal", dict(count=size),
                f"count must be <= {_MAX_ENTRIES}",
            ),
            (
                "make_folds", dict(sample_size=size, k=2),
                f"sample_size must be <= {_MAX_ENTRIES}",
            ),
            (
                "ExperimentConfig", dict(sizes=(size,), trials=(1,)),
                f"sizes entry must be <= {_MAX_ENTRIES}",
            ),
            # exits 2 with one error: line, before the study runs
            ("cli-cell", dict(n=size, t=1, mu=0.0, sigma2=1.0)),
        )
    },
}


def _floats(value):
    """Every float ``value`` holds or derives: its own, its entries', and
    a dataclass's fields' and properties'."""
    if isinstance(value, (float, np.floating)):
        yield float(value)
    elif isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield from value.ravel().tolist()
    elif isinstance(value, dict):
        for entry in value.values():
            yield from _floats(entry)
    elif isinstance(value, (tuple, list)):
        for entry in value:
            yield from _floats(entry)
    elif dataclasses.is_dataclass(value):
        derived = [
            name for name, member in vars(type(value)).items()
            if isinstance(member, (property, cached_property))
        ]
        for name in [f.name for f in dataclasses.fields(value)] + derived:
            yield from _floats(getattr(value, name))


def _keeps_the_contract(row, args, refusal=None):
    """The row's call on ``args`` is refused naming a parameter (starting
    with ``refusal``, if given), or returns only finite floats, and
    warns nothing either way. A command exits 0 and prints no inf or
    nan, or exits 2 with one ``error:`` line; its ``warning:`` lines are
    not errors."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = row.call(**args)
        except ValidationError as exc:
            names = "|".join(map(re.escape, [*args, *row.names]))
            start = re.escape(refusal) if refusal else f"({names})\\b"
            assert re.match(f"({row.where})?{start}", str(exc)), str(exc)
            got = None
    assert [str(w.message) for w in caught] == []
    if isinstance(got, _Exit):
        errors = [
            line for line in got.err.splitlines()
            if not line.startswith("warning: ")
        ]
        if got.code == 0:
            assert not re.search(r"\b(inf|nan)\b", got.out), got.out
        else:
            assert got.code == 2 and len(errors) == 1, got.err
            assert errors[0].startswith("error: "), got.err
        return
    assert refusal is None or got is None
    assert all(map(math.isfinite, _floats(got))), got


def test_every_public_callable_has_a_row():
    callables = {
        name for name in fusionval.__all__
        if callable(getattr(fusionval, name))
    }
    python_rows = {name for name in _DOMAIN if not name.startswith("cli-")}
    assert python_rows == callables - _NO_DOMAIN
    assert python_rows | _NO_DOMAIN == set(fusionval.__all__)


_CASES = {
    **{name: (name, None) for name in _DOMAIN},
    **{
        f"finding-{key}": (row, args, *refusal)
        for key, (row, args, *refusal) in _FINDINGS.items()
    },
}


def _arguments(params):
    """Every parameter at its usual value but one, drawn from its
    strategy, or every one drawn."""
    usual = {name: st.just(value) for name, (value, _) in params.items()}
    drawn = {name: strategy for name, (_, strategy) in params.items()}
    one = st.sampled_from(list(params)).flatmap(
        lambda name: st.fixed_dictionaries({**usual, name: drawn[name]})
    )
    return st.one_of(one, st.fixed_dictionaries(drawn))


@pytest.mark.parametrize("case", list(_CASES))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_every_public_call_keeps_to_its_domain(case, data):
    row, args, *refusal = _CASES[case]
    row = _DOMAIN[row]
    if args is None:
        args = data.draw(_arguments(row.params), label="args")
    _keeps_the_contract(row, args, *refusal)


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize(
    "field, call",
    [
        (
            "iterations",
            lambda count, k, stream: fsv_run(
                _TWENTY, FsvConfig(count, k=k), stream
            ),
        ),
        (
            "repetitions",
            lambda count, k, stream: fusionval.repeated_kfcv(
                _TWENTY, count, LambdaWeights.uniform(k), stream
            ),
        ),
        (
            "repetitions",
            lambda count, k, stream: run_experiment(ExperimentConfig(
                sizes=(20,), trials=(1,), k=k, repetitions=count,
            )),
        ),
    ],
    ids=["FsvConfig", "repeated_kfcv", "ExperimentConfig"],
)
def test_a_pass_count_past_the_entries_over_k_is_refused_before_any_draw(
    field, call, k
):
    # each pass holds k fold losses, so a count of passes may size the
    # kernel's arrays to at most _MAX_ENTRIES entries; uncapped, fsv_run
    # escaped as numpy's bare "array is too big", and a study's trial
    # died with it, naming its cell
    stream = RngStream(1, 0)
    before = stream.generator.bit_generator.state
    most = _MAX_ENTRIES // k
    with pytest.raises(ValidationError, match=f"^{field} must be <= {most},"):
        call(most + 1, k, stream)
    assert stream.generator.bit_generator.state == before


# hand-written array checks compare one of these attributes
_ARRAY_ATTRIBUTES = {"dtype", "shape", "ndim"}


def _sites(node, picks, owner="<module>"):
    """(function, line) of each node under ``node`` that ``picks``
    accepts, the function being the innermost one around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _sites(child, picks, child.name)
            continue
        if picks(child):
            yield owner, child.lineno
        yield from _sites(child, picks, owner)


def _src_sites(picks):
    """(module, function, line) of each node in ``src/`` that ``picks``
    accepts."""
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _sites(tree, picks):
            yield path.name, name, line


def _array_check(node):
    """A comparison with a ``.dtype``, ``.shape`` or ``.ndim`` attribute
    in an operand."""
    return isinstance(node, ast.Compare) and any(
        isinstance(sub, ast.Attribute) and sub.attr in _ARRAY_ATTRIBUTES
        for operand in (node.left, *node.comparators)
        for sub in ast.walk(operand)
    )


def test_every_array_check_is_the_vector_rule():
    # errors states the rule; every other module, stored results
    # included, checks its arrays by it
    sites = list(_src_sites(_array_check))
    assert [
        f"{module}:{line} in {name}" for module, name, line in sites
        if module != "errors.py"
    ] == []
    # the guard sees the rule
    assert ("errors.py", "_vector") in {(m, name) for m, name, _ in sites}


def _calls_of(names):
    """A picker of calls of any of ``names``, as a method or a bare
    name."""
    def picks(node):
        func = getattr(node, "func", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        return isinstance(node, ast.Call) and name in names
    return picks


def _assert_called_only_at(names, allowed):
    """Every call in ``src/`` of any of ``names`` lies in a function of
    ``allowed``, as (module, function) pairs, and each of those is seen."""
    sites = list(_src_sites(_calls_of(names)))
    assert [
        f"{module}:{line} in {name}" for module, name, line in sites
        if (module, name) not in allowed
    ] == []
    # the guard sees every allowed site
    assert {(module, name) for module, name, _ in sites} == allowed


# the draw methods a pass makes, and the one place each may be called:
# the kernel's loop, the public per-step draws, and selftest's replay
_DRAW_METHODS = {"choice", "permutation", "shuffle"}
_DRAW_SITES = {
    ("sampling.py", "_draw_subset"), ("kfold.py", "make_folds"),
    ("kfold.py", "_run_passes"), ("selftest.py", "_replay_draw"),
}


def test_every_draw_is_made_where_the_draw_contract_allows():
    # a new copy of the pass's draws cannot appear unnoticed
    _assert_called_only_at(_DRAW_METHODS, _DRAW_SITES)


def test_every_average_is_the_mean_rule():
    # every average the package takes is errors._mean's, the model's
    # own fit and loss included; a second way cannot appear unnoticed
    _assert_called_only_at({"mean", "average"}, {("errors.py", "_mean")})


def _integral_number(node):
    """A call of ``_number`` that passes True as its third argument,
    ``integral``, by position or by name."""
    if not _calls_of({"_number"})(node):
        return False
    given = [*node.args[2:3], *(k.value for k in node.keywords)]
    return any(getattr(arg, "value", None) is True for arg in given)


def test_every_integral_field_is_the_count_rule():
    # outside errors, an integer goes through _count, which also bounds it
    sites = list(_src_sites(_integral_number))
    assert [
        f"{module}:{line} in {name}" for module, name, line in sites
        if module != "errors.py"
    ] == []
    # the guard sees the rule's own call
    assert ("errors.py", "_count") in {(m, name) for m, name, _ in sites}


def _mean_cases(count, seed):
    """``count`` fixed-seed (x, weights) pairs: 1-40 x 1-12 tables, some
    transposed, of one magnitude from 1e-200 to 1e200, signed or not,
    with weights of 1.0 or positive per-column weights summing to the
    column count."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, columns = rng.integers(1, 41), rng.integers(1, 13)
        x = 10.0 ** rng.uniform(-200, 200) * rng.uniform(
            -rng.integers(2), 1, (rows, columns)
        )
        if rng.integers(2):
            x = x.T
        weights = 1.0
        if rng.integers(2):
            weights = rng.dirichlet(np.ones(x.shape[1])) * x.shape[1]
        yield x, weights


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_the_mean_rule_has_the_bits_of_a_plain_mean(axis):
    # the power-of-two scaling is exact, so where the plain mean is
    # finite, as here, the two round alike
    for x, weights in _mean_cases(2_000, 34):
        plain = (weights * x).mean(axis)
        assert np.isfinite(plain).all()
        got = _mean(x, axis, weights)
        assert type(got) is (float if axis is None else np.ndarray)
        assert np.asarray(got).tobytes() == np.asarray(plain).tobytes()
