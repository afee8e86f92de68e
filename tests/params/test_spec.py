"""The typed parameter schema: coercion, profiles, resolution, JSON."""

import json

import pytest

from repro.params import Param, ParamSpace
from repro.utils import InvalidParameterError


@pytest.fixture
def space() -> ParamSpace:
    return ParamSpace(
        Param("n", "int", 200_000, minimum=2, help="population size"),
        Param("eps", "float", 0.05, minimum=0.0, maximum=1.0),
        Param("cases", "str", "small", choices=("small", "large")),
        Param("observed", "bool", True),
        profiles={"full": {"n": 1_000_000, "cases": "large"}},
    )


class TestParamCoercion:
    def test_int_accepts_scientific_spelling(self):
        param = Param("n", "int", 10, minimum=1)
        assert param.coerce("1e4") == 10_000
        assert param.coerce(5e4) == 50_000
        assert isinstance(param.coerce("1e4"), int)

    def test_int_exact_beyond_float_precision(self):
        # Plain-decimal spellings never round through float.
        big = "10000000000000001"  # 2**53 rounds this off as a float
        assert Param("n", "int", 10).coerce(big) == 10_000_000_000_000_001

    def test_int_rejects_fractional(self):
        with pytest.raises(InvalidParameterError, match="expects int"):
            Param("n", "int", 10).coerce("10.5")

    def test_int_rejects_bool(self):
        with pytest.raises(InvalidParameterError, match="expects int"):
            Param("n", "int", 10).coerce(True)

    def test_float_accepts_strings(self):
        assert Param("x", "float", 0.0).coerce("0.25") == 0.25

    def test_float_rejects_nan(self):
        with pytest.raises(InvalidParameterError, match="expects float"):
            Param("x", "float", 0.0).coerce("nan")

    def test_float_rejects_bool(self):
        with pytest.raises(InvalidParameterError, match="expects float"):
            Param("x", "float", 0.0).coerce(True)

    def test_bool_rejects_unknown_spelling(self):
        with pytest.raises(InvalidParameterError, match="expects bool"):
            Param("flag", "bool", False).coerce("maybe")

    def test_str_rejects_non_string(self):
        with pytest.raises(InvalidParameterError, match="expects str"):
            Param("mode", "str", "a").coerce(3)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("true", True),
            ("1", True),
            ("yes", True),
            ("false", False),
            ("0", False),
            ("off", False),
        ],
    )
    def test_bool_spellings(self, text, expected):
        assert Param("flag", "bool", False).coerce(text) is expected

    def test_bounds_enforced(self):
        param = Param("k", "int", 4, minimum=2, maximum=8)
        with pytest.raises(InvalidParameterError, match=">= 2"):
            param.coerce(1)
        with pytest.raises(InvalidParameterError, match="<= 8"):
            param.coerce(9)

    def test_choices_enforced(self):
        param = Param("mode", "str", "a", choices=("a", "b"))
        with pytest.raises(InvalidParameterError, match="one of"):
            param.coerce("c")

    def test_default_is_validated(self):
        with pytest.raises(InvalidParameterError, match=">= 5"):
            Param("n", "int", 1, minimum=5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError, match="kind"):
            Param("n", "list", [])

    def test_bad_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="identifier"):
            Param("not a name", "int", 1)


class TestParamSpace:
    def test_declaration_order_preserved(self, space):
        assert space.names == ("n", "eps", "cases", "observed")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(InvalidParameterError, match="twice"):
            ParamSpace(Param("n", "int", 1), Param("n", "int", 2))

    def test_non_param_entry_rejected(self):
        with pytest.raises(InvalidParameterError, match="Param instances"):
            ParamSpace(("n", "int", 1))

    def test_profile_name_must_be_identifier(self):
        with pytest.raises(InvalidParameterError, match="identifier"):
            ParamSpace(Param("n", "int", 1), profiles={"not valid": {}})

    def test_profile_overrides_validated_at_construction(self):
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            ParamSpace(Param("n", "int", 1), profiles={"full": {"zz": 2}})
        with pytest.raises(InvalidParameterError, match=">="):
            ParamSpace(Param("n", "int", 5, minimum=2), profiles={"full": {"n": 0}})

    def test_builtin_profiles_always_exist(self):
        empty = ParamSpace()
        assert empty.profiles == ("fast", "full")
        assert empty.profile_overrides("full") == {}

    def test_resolve_layers_defaults_profile_overrides(self, space):
        fast = space.resolve()
        assert fast["n"] == 200_000 and fast["cases"] == "small"
        full = space.resolve("full")
        assert full["n"] == 1_000_000 and full["cases"] == "large"
        mixed = space.resolve("full", {"n": "5e5"})
        assert mixed["n"] == 500_000 and mixed["cases"] == "large"

    def test_resolve_rejects_unknown_parameter(self, space):
        with pytest.raises(InvalidParameterError, match="valid parameters: n, eps"):
            space.resolve("fast", {"zz": 1})

    def test_resolve_rejects_unknown_profile(self, space):
        with pytest.raises(InvalidParameterError, match="known profiles"):
            space.resolve("turbo")

    def test_custom_profiles_resolve(self):
        space = ParamSpace(Param("n", "int", 10), profiles={"huge": {"n": 10_000}})
        assert space.resolve("huge")["n"] == 10_000
        assert "huge" in space.profiles

    def test_empty_custom_profile_is_in_the_json_form(self):
        space = ParamSpace(Param("n", "int", 10), profiles={"smoke": {}})
        assert space.to_dict()["profiles"]["smoke"] == {}

    def test_json_round_trip(self, space):
        payload = space.to_dict()
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload

    def test_describe_table_shape(self, space):
        headers, rows = space.describe_table()
        assert "param" in headers
        assert [row[0] for row in rows] == list(space.names)


class TestResolvedParams:
    def test_canonical_is_spelling_independent(self, space):
        left = space.resolve("fast", {"n": "1e4"})
        right = space.resolve("fast", {"n": 10_000})
        assert left.canonical() == right.canonical()

    def test_canonical_collapses_default_equal_overrides(self, space):
        base = space.resolve("fast").canonical()
        assert base == space.resolve("fast", {"n": 200_000}).canonical()

    def test_canonical_differs_across_profiles(self, space):
        assert space.resolve("fast").canonical() != space.resolve("full").canonical()

    def test_mapping_interface(self, space):
        resolved = space.resolve()
        assert "n" in resolved
        assert resolved.get("missing", 3) == 3
        assert set(resolved) == set(space.names)
        assert len(resolved) == len(space)
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            resolved["missing"]

    def test_summary_renders_pairs(self, space):
        assert "n=200000" in space.resolve().summary()
