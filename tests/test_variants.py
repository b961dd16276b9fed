"""Variant names, parsing, exponent domain, and catalog expansion."""

import os
import pickle
import re
import subprocess
import sys
from copy import deepcopy
from dataclasses import replace
from itertools import product

import numpy as np
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
from bbbounds.bounds import Plan, plan_for
from bbbounds.tuning import _DEFAULT_GRID, EXPONENT_MIN
from bbbounds.variants import _SPEC_OF, _SPECS, DEFAULT_EXPONENTS

# the exponents the tuner starts from: its lower end, the catalog's and its grid
TUNER_EXPONENTS = (EXPONENT_MIN, *DEFAULT_EXPONENTS, *_DEFAULT_GRID)


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
        for sel in (MAX, SUM, Selector("max"), Selector("sum")):
            for copy in (sel, pickle.loads(pickle.dumps(sel)), deepcopy(sel)):
                with pytest.raises(VariantError, match="has no conjugate exponent"):
                    copy.conjugate

    @given(st.floats(min_value=1.0, max_value=64.0, exclude_min=True))
    def test_conjugate_identity(self, p):
        q = conjugate_exponent(p)
        assert abs(1.0 / p + 1.0 / q - 1.0) <= 1e-15

    @given(st.floats(min_value=1.0, max_value=64.0, exclude_min=True) | st.sampled_from(TUNER_EXPONENTS))
    def test_stored_conjugate_is_the_conjugate_exponent(self, p):
        # each way to make a holder selector carries conjugate_exponent(p), bit for bit
        for sel in (holder(p), Selector("holder", p), pickle.loads(pickle.dumps(holder(p))), deepcopy(holder(p))):
            assert sel.conjugate.hex() == conjugate_exponent(p).hex()

    @given(st.floats(min_value=1.0, max_value=64.0, exclude_min=True) | st.sampled_from(TUNER_EXPONENTS))
    def test_holder_is_the_dataclass_selector(self, p):
        # holder() fills the frozen selector directly; it compares, hashes,
        # prints and pickles as the dataclass constructor's selector
        fast, built = holder(p), Selector("holder", p)
        assert type(fast) is Selector
        assert fast == built and hash(fast) == hash(built) and repr(fast) == repr(built)
        assert fast.name == built.name
        assert vars(fast) == vars(built) == {"kind": "holder", "exponent": p, "conjugate": conjugate_exponent(p)}
        assert pickle.dumps(fast) == pickle.dumps(built)
        assert pickle.loads(pickle.dumps(fast)) == fast
        assert replace(fast, exponent=2.0) == holder(2.0)

    def test_pickled_state_is_kind_and_exponent(self):
        # the pickled state is the two fields, as before the conjugate was stored
        for sel in (MAX, SUM, holder(1.5)):
            assert sel.__reduce_ex__(4)[2] == {"kind": sel.kind, "exponent": sel.exponent}


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
            Variant("lemma21:{diag}:{offdiag}", diag=MAX)       # missing offdiag
        with pytest.raises(VariantError):
            Variant("cor23:sharp", diag=MAX, offdiag=MAX)
        with pytest.raises(VariantError):
            Variant("cor32:3:p={p}")                            # needs p
        with pytest.raises(VariantError):
            Variant("cor32:1", p=2.0)
        with pytest.raises(VariantError):
            Variant("special:2.12:p={p}")                       # needs p
        with pytest.raises(VariantError):
            Variant("bb:4.3:p={p}", p=1.0)                      # exponent domain

    @pytest.mark.parametrize("pattern", [spec.pattern for spec in _SPECS])
    def test_pattern_built_variants_equal_parsed_names(self, pattern):
        choices = {"diag": (MAX, holder(1.5), SUM), "offdiag": (SUM, holder(64.0)), "p": (1.25, 64.0)}
        slots = _SPEC_OF[pattern].slots
        for values in product(*(choices[slot] for slot in slots)):
            variant = Variant(pattern, **dict(zip(slots, values)))
            parsed = parse_variant(variant.name)
            assert parsed == variant and hash(parsed) == hash(variant)
            assert parsed.spec is _SPEC_OF[pattern]

    @pytest.mark.parametrize("pattern", ["lemma21", "cor32", "cor32:5", "cor23_sharp", "bb:4.3:p=2.0", ""])
    def test_unknown_pattern_named(self, pattern):
        with pytest.raises(VariantError, match=re.escape(f"unknown variant pattern {pattern!r}")):
            Variant(pattern)

    def test_family_metadata(self):
        assert parse_variant("lemma21:max:sum").requires_coeffs
        assert parse_variant("cor32:1").requires_coeffs
        assert not parse_variant("bb:1.2").requires_coeffs
        assert parse_variant("bessel:1.1").orthonormal_only
        assert parse_variant("ortho:4.4:p=2.0").orthonormal_only
        assert not parse_variant("bb:4.5").orthonormal_only


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
        assert got == (Variant("cor23:sharp"), Variant("bessel:1.1"))

    def test_empty_rejected(self):
        with pytest.raises(VariantError):
            parse_variant_list(" , ")


class TestVariantObjects:
    def test_pickle_round_trip(self):
        for variant in full_catalog():
            copy = pickle.loads(pickle.dumps(variant))
            assert copy == variant and copy.name == variant.name

    def test_hash_is_the_name_hash(self):
        for variant in full_catalog():
            assert hash(variant) == hash(variant.name)

    def test_equal_variants_find_one_plan(self):
        # separately built equal variants, and pickled copies, hit the plan
        # the first tuple built
        plan_for.cache_clear()
        first, again = full_catalog(), parse_variant_list("all")
        assert not any(a is b for a, b in zip(first, again))
        plan = plan_for(first)
        assert plan_for(again) is plan
        assert plan_for(pickle.loads(pickle.dumps(first))) is plan
        assert plan_for(pickle.loads(pickle.dumps(plan)).variants) is plan

    def test_plan_lookup(self, monkeypatch):
        # the same tuple object finds its plan without hashing a variant; an
        # equal tuple, a list and an unpickled copy find the same plan by
        # hash; after cache_clear nothing is found, the same tuple included
        plan_for.cache_clear()
        catalog = full_catalog()
        plan = plan_for(catalog)
        hashed = []
        variant_hash = Variant.__hash__
        monkeypatch.setattr(Variant, "__hash__", lambda v: hashed.append(v) or variant_hash(v))
        assert plan_for(catalog) is plan and hashed == []
        for equal in (tuple(parse_variant_list("all")), list(catalog), pickle.loads(pickle.dumps(catalog))):
            hashed.clear()
            assert plan_for(equal) is plan and len(hashed) == len(catalog)
        assert plan_for(catalog) is plan
        plan_for.cache_clear()
        fresh = plan_for(catalog)
        assert fresh is not plan and plan_for(list(catalog)) is fresh

    def test_plan_pickles_whole(self):
        # plans reach the --jobs workers pickled: every attribute survives,
        # the variants compare and hash as the originals do
        catalog = full_catalog() + full_catalog()[:4]
        plan = Plan(catalog)
        copy = pickle.loads(pickle.dumps(plan))
        assert vars(copy).keys() == vars(plan).keys()
        for name, value in vars(plan).items():
            got = getattr(copy, name)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and np.array_equal(got, value), name
            else:
                assert got == value, name
        assert [hash(v) for v in copy.variants] == [hash(v) for v in plan.variants]
        assert [repr(v) for v in copy.variants] == [repr(v) for v in plan.variants]
        assert [v.terms for v in copy.variants] == [v.terms for v in plan.variants]

    def test_unpickled_variants_hash_in_another_process(self):
        # a string hashes differently in each process, and an unpickled
        # variant hashes by its name as the process hashes it
        script = (
            "import pickle, sys\n"
            "from bbbounds import parse_variant_list\n"
            "rows = {v: k for k, v in enumerate(pickle.loads(sys.stdin.buffer.read()))}\n"
            "assert [rows[v] for v in parse_variant_list('all')] == list(range(len(rows)))\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345"}
        proc = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(full_catalog()), capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
