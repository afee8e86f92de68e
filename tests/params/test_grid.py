"""The textual --set / --grid spellings and their error messages."""

import pytest

from repro.params import Param, ParamSpace, parse_grid, parse_set, parse_sets
from repro.utils import InvalidParameterError


@pytest.fixture
def space() -> ParamSpace:
    return ParamSpace(
        Param("n", "int", 100, minimum=1),
        Param("eps", "float", 0.05, minimum=0.0, maximum=1.0),
        Param("mode", "str", "a", choices=("a", "b")),
    )


class TestParseSet:
    def test_coerces_value(self, space):
        assert parse_set("n=1e4", space) == ("n", 10_000)

    def test_parse_sets_folds_pairs(self, space):
        overrides = parse_sets(["n=5", "eps=0.25", "n=7"], space)
        assert overrides == {"n": 7, "eps": 0.25}

    def test_parse_sets_none_is_empty(self, space):
        assert parse_sets(None, space) == {}

    @pytest.mark.parametrize("bad", ["n", "=5", "n=", "  =  "])
    def test_malformed_pair_lists_valid_params(self, space, bad):
        with pytest.raises(
            InvalidParameterError, match=r"valid parameters: n, eps, mode"
        ):
            parse_set(bad, space)

    def test_unknown_name_rejected(self, space):
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            parse_set("zz=1", space)


class TestParseGrid:
    def test_comma_list_axis(self, space):
        grid = parse_grid(["n=1e4,5e4"], space)
        assert grid == {"n": [10_000, 50_000]}

    def test_range_axis_is_inclusive_linspace(self, space):
        grid = parse_grid(["eps=0.01:0.05:5"], space)
        assert grid["eps"] == pytest.approx([0.01, 0.02, 0.03, 0.04, 0.05])
        assert grid["eps"][-1] == 0.05  # exact endpoint

    def test_multiple_axes_keep_order(self, space):
        grid = parse_grid(["eps=0.1,0.2", "n=1,2"], space)
        assert list(grid) == ["eps", "n"]

    def test_string_axis_values(self, space):
        assert parse_grid(["mode=a,b"], space) == {"mode": ["a", "b"]}

    def test_duplicate_axis_rejected(self, space):
        with pytest.raises(InvalidParameterError, match="twice"):
            parse_grid(["n=1,2", "n=3"], space)

    def test_empty_grid_rejected(self, space):
        with pytest.raises(InvalidParameterError, match="at least one"):
            parse_grid([], space)

    @pytest.mark.parametrize(
        "bad", ["n=1:2", "n=1:2:3:4", "n=a:b:3", "n=1:9:1", "n=", "n", "n=,"]
    )
    def test_malformed_axes_rejected(self, space, bad):
        with pytest.raises(InvalidParameterError):
            parse_grid([bad], space)

    def test_values_validated_against_schema(self, space):
        with pytest.raises(InvalidParameterError, match=">= 1"):
            parse_grid(["n=0,5"], space)
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            parse_grid(["zz=1,2"], space)


class TestDegenerateRanges:
    """``count=1`` and ``start == stop`` collapse to one exact endpoint
    instead of hitting zero-step linspace arithmetic."""

    def test_equal_endpoints_single_count(self, space):
        assert parse_grid(["eps=0.25:0.25:1"], space) == {"eps": [0.25]}

    def test_equal_endpoints_larger_count(self, space):
        # Zero-step arithmetic used to emit `count` duplicated points.
        assert parse_grid(["eps=0.25:0.25:3"], space) == {"eps": [0.25]}

    def test_equal_endpoints_exact_int(self, space):
        assert parse_grid(["n=5:5:1"], space) == {"n": [5]}

    def test_count_one_over_real_range_rejected(self, space):
        with pytest.raises(InvalidParameterError, match="ambiguous"):
            parse_grid(["eps=0.1:0.2:1"], space)

    def test_count_zero_rejected(self, space):
        with pytest.raises(InvalidParameterError, match="count >= 1"):
            parse_grid(["eps=0.1:0.2:0"], space)


class TestSeedAxis:
    """``seed`` is a first-class grid axis even though no experiment
    declares it as a parameter: the parser coerces it to exact ints and
    grid_plan lifts it into each task's seed coordinate."""

    def test_seed_list_coerces_to_ints(self, space):
        grid = parse_grid(["seed=1,2,1e2"], space)
        assert grid == {"seed": [1, 2, 100]}
        assert all(type(v) is int for v in grid["seed"])

    def test_seed_range_spelling(self, space):
        assert parse_grid(["seed=0:7:8"], space) == {
            "seed": [0, 1, 2, 3, 4, 5, 6, 7]}

    def test_seed_crossed_with_parameter_axes(self, space):
        grid = parse_grid(["n=10,20", "seed=3,4"], space)
        assert list(grid) == ["n", "seed"]

    def test_non_numeric_seed_rejected(self, space):
        with pytest.raises(InvalidParameterError, match="integers"):
            parse_grid(["seed=a,b"], space)

    def test_fractional_seed_rejected(self, space):
        with pytest.raises(InvalidParameterError, match="integers"):
            parse_grid(["seed=0.5,1"], space)
        with pytest.raises(InvalidParameterError, match="integers"):
            parse_grid(["seed=0:1:3"], space)

    def test_declared_seed_param_wins_over_special_case(self):
        # If an experiment ever declares its own `seed` knob, schema
        # coercion applies untouched.
        space = ParamSpace(Param("seed", "float", 0.5, minimum=0.0))
        assert parse_grid(["seed=0.25,0.75"], space) == {
            "seed": [0.25, 0.75]}
