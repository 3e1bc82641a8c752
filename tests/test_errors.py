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
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionval.data import Dataset, generate_dataset
from fusionval.errors import (
    ValidationError, _count, _finite, _mean, _nonnegative, _number,
    _numbers, _positive, _vector,
)
from fusionval.estimator import ModelParams, fit, loss
from fusionval.fsv import FsvConfig, FsvResult, compound_measure, fsv_run
from fusionval.harness import (
    CellResult, ExperimentConfig, ExperimentReport, run_experiment,
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
        report = run_experiment(ExperimentConfig(**_SMALL, k=2), jobs=1)
        (cell,) = report.cells
        trials = {m: table.copy() for m, table in cell.trials.items()}
        again = CellResult(
            cell.n, trials, cell.fsv_iteration_losses.copy(), Fraction(19, 20)
        )
        assert type(again.alpha) is float and again.alpha == 0.95
        ExperimentReport(report.config, [again], 1.0)

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


# hand-written array checks compare one of these attributes
_ARRAY_ATTRIBUTES = {"dtype", "shape", "ndim"}
# the stricter rule for stored results: a float64 array of one shape
_OTHER_ARRAY_RULES = {("metrics.py", "_frozen_array")}


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
    # errors states the rule; any other module checks its arrays by it
    sites = list(_src_sites(_array_check))
    assert [
        f"{module}:{line} in {name}" for module, name, line in sites
        if module != "errors.py" and (module, name) not in _OTHER_ARRAY_RULES
    ] == []
    # the guard sees the rule and its one exception
    written = {(module, name) for module, name, _ in sites}
    assert {("errors.py", "_vector"), *_OTHER_ARRAY_RULES} <= written


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
