"""Variant names, parsing, exponent domain, and catalog expansion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbbounds import (
    MAX,
    SUM,
    Selector,
    Variant,
    VariantError,
    conjugate_exponent,
    full_catalog,
    holder,
    parse_variant,
    parse_variant_list,
)


class TestSelector:
    def test_names(self):
        assert MAX.name == "max"
        assert SUM.name == "sum"
        assert holder(2).name == "holder:2.0"
        assert holder(1.25).name == "holder:1.25"

    def test_exponent_domain(self):
        holder(64.0)
        for bad in (1.0, 0.5, 64.5, float("nan"), float("inf"), "x", None):
            with pytest.raises(VariantError):
                holder(bad)

    def test_plain_selectors_take_no_exponent(self):
        with pytest.raises(VariantError):
            Selector("max", 2.0)
        with pytest.raises(VariantError):
            Selector("median")

    def test_conjugate_only_for_holder(self):
        assert holder(2.0).conjugate == 2.0
        with pytest.raises(VariantError):
            MAX.conjugate

    @given(st.floats(min_value=1.0, max_value=64.0, exclude_min=True))
    def test_conjugate_identity(self, p):
        q = conjugate_exponent(p)
        assert abs(1.0 / p + 1.0 / q - 1.0) <= 1e-15


class TestVariantNames:
    def test_catalog_round_trips(self):
        for variant in full_catalog():
            assert parse_variant(variant.name) == variant

    def test_catalog_size_and_uniqueness(self):
        cat = full_catalog()
        assert len(cat) == 179
        names = [v.name for v in cat]
        assert len(set(names)) == 179

    def test_expected_names_present(self):
        names = {v.name for v in full_catalog()}
        for expected in (
            "lemma21:max:max",
            "lemma21:holder:2.0:sum",
            "lemma21:sum:holder:1.25",
            "cor23:sharp",
            "cor23:weak",
            "coarse:sum:sum",
            "special:2.11",
            "special:2.12:p=2.0",
            "special:2.13",
            "thm31:max:holder:4.0",
            "cor32:1",
            "cor32:3:p=1.5",
            "bb:1.2",
            "bb:4.1",
            "bb:4.3:p=3.0",
            "bb:4.5",
            "ortho:4.2",
            "ortho:4.4:p=1.25",
            "bessel:1.1",
        ):
            assert expected in names, expected

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "bogus",
            "lemma21:max",
            "lemma21:max:max:max",
            "lemma21:holder:max",
            "lemma21:holder:0.5:max",
            "cor23:mid",
            "special:2.12",
            "special:2.12:q=2.0",
            "cor32:5",
            "cor32:3",
            "bb:4.3",
            "bessel:1.1:x",
            "ortho:4.4:p=65",
        ],
    )
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(VariantError):
            parse_variant(bad)

    def test_constructor_argument_checks(self):
        with pytest.raises(VariantError):
            Variant("lemma21", diag=MAX)             # missing offdiag
        with pytest.raises(VariantError):
            Variant("cor23_sharp", diag=MAX, offdiag=MAX)
        with pytest.raises(VariantError):
            Variant.cor32(3)                         # branch 3 needs p
        with pytest.raises(VariantError):
            Variant.cor32(1, p=2.0)
        with pytest.raises(VariantError):
            Variant("special_212")                   # needs p

    def test_family_metadata(self):
        assert Variant.lemma21(MAX, SUM).requires_coeffs
        assert Variant.cor32(1).requires_coeffs
        assert not Variant.boas_bellman().requires_coeffs
        assert Variant.bessel().orthonormal_only
        assert Variant.ortho_44(2.0).orthonormal_only
        assert not Variant.fourier_45().orthonormal_only


class TestVariantLists:
    def test_all_expands_catalog(self):
        assert parse_variant_list("all") == full_catalog()

    def test_custom_exponents(self):
        cat = full_catalog(exponents=(2.0,))
        assert len(cat) == {  # 3 grids of 3x3, plus the fixed variants
            True: 3 * 9 + 2 + 3 + 4 + 4 + 2 + 1
        }[True]
        assert parse_variant_list("all", exponents=(2.0,)) == cat

    def test_comma_list(self):
        got = parse_variant_list(" cor23:sharp , bessel:1.1 ")
        assert got == (Variant.cor23_sharp(), Variant.bessel())

    def test_empty_rejected(self):
        with pytest.raises(VariantError):
            parse_variant_list(" , ")


class TestVariantObjects:
    def test_pickle_round_trip(self):
        import pickle

        for variant in full_catalog():
            copy = pickle.loads(pickle.dumps(variant))
            assert copy == variant and copy.name == variant.name
