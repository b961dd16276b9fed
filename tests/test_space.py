"""Vector/Gram primitives: construction, validation, oracles, serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbbounds import (
    GramMatrix,
    IncompatibleInstanceError,
    ProblemInstance,
    RankDeficiencyError,
    ValidationError,
    VectorFamily,
    combination_norm_sq,
    gram_of_family,
    instance_from_jsonable,
    instance_to_jsonable,
    load_instance,
    orthonormalize,
    save_instance,
)

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]


def random_instance(rng, n=None, d=None, complex_field=True, scale=1.0):
    """Standard-normal coefficients, x, and family; the shared test generator."""
    n = int(rng.integers(1, 9)) if n is None else n
    d = int(rng.integers(1, 9)) if d is None else d

    def draw(shape):
        re = rng.standard_normal(shape)
        if complex_field:
            return (re + 1j * rng.standard_normal(shape)) * scale
        return (re * scale).astype(np.complex128)

    return draw(d), draw((n, d)), draw(n)


class TestInnerProduct:
    """The pairing ``(u, v) = sum_k u_k conj(v_k)``, read off an instance's
    bordered Gram: ``fourier`` holds ``(x, y_i)``."""

    def test_orthogonal_basis(self):
        assert ProblemInstance.from_vectors(E1, [E2]).fourier[0] == 0

    def test_norm_identity(self):
        assert ProblemInstance.from_vectors([3.0, 4.0], [[3.0, 4.0]]).fourier[0] == 25

    def test_scaling_first_slot(self):
        assert ProblemInstance.from_vectors([1 + 1j, 0], [E1]).fourier[0] == 1 + 1j

    def test_conjugate_linear_second_slot(self):
        # linear in x, conjugate-linear in y: (i x, y) = i (x, y), (x, i y) = -i (x, y)
        x = np.array([1.0 + 2.0j, -0.5j])
        y = np.array([0.25 - 1.0j, 3.0])
        f = ProblemInstance.from_vectors(x, [y]).fourier[0]
        assert ProblemInstance.from_vectors(1j * x, [y]).fourier[0] == pytest.approx(1j * f)
        assert ProblemInstance.from_vectors(x, [1j * y]).fourier[0] == pytest.approx(-1j * f)

    def test_dimension_mismatch(self):
        # (x, y_0) with x longer than y_0, and (y_0, y_1) across the family
        with pytest.raises(ValidationError):
            ProblemInstance.from_vectors([1.0, 2.0], [[1.0]])
        with pytest.raises(ValidationError):
            ProblemInstance.from_vectors([1.0, 2.0], [[1.0, 0.0], [1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ProblemInstance.from_vectors([float("nan")], [[1.0]])


class TestGramOfFamily:
    def test_orthonormal_pair_gives_identity(self):
        g = gram_of_family(VectorFamily.from_rows([E1, E2]))
        np.testing.assert_array_equal(g.entries, np.eye(2))

    def test_scalar_triple(self):
        g = gram_of_family(VectorFamily.from_rows([[1.0], [0.5], [1.0]]))
        expected = [[1.0, 0.5, 1.0], [0.5, 0.25, 0.5], [1.0, 0.5, 1.0]]
        np.testing.assert_array_equal(g.entries, np.array(expected, dtype=complex))

    def test_empty_family(self):
        g = gram_of_family(VectorFamily.from_rows([], dim=3))
        assert g.n == 0 and g.entries.shape == (0, 0)

    def test_exactly_hermitian_with_real_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            _, fam, _ = random_instance(rng)
            e = gram_of_family(VectorFamily(fam)).entries
            assert np.array_equal(e, e.conj().T)
            assert np.all(e.diagonal().imag == 0.0)
            assert np.array_equal(np.abs(e), np.abs(e).T)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            VectorFamily.from_rows([[1.0], [1.0, 2.0]])


class TestFromRows:
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_array_with_nan_names_the_row(self, k):
        arr = np.ones((5, 3), dtype=np.complex128)
        arr[k, 1] = complex(0.0, np.nan)
        arr[4, 0] = np.inf
        first = min(k, 4)
        with pytest.raises(ValidationError, match=f"^family vector {first} contains non-finite"):
            VectorFamily.from_rows(arr)
        with pytest.raises(ValidationError, match=f"^family vector {first} contains non-finite"):
            VectorFamily.from_rows(list(arr))

    def test_wrong_dim_same_message_as_rows(self):
        arr = np.ones((3, 2))
        messages = []
        for rows in (arr, arr.tolist()):
            with pytest.raises(ValidationError) as err:
                VectorFamily.from_rows(rows, dim=4)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "family dimension 2 does not match dim=4"

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
    def test_array_and_rows_bitwise_equal(self, dtype):
        rng = np.random.default_rng(31)
        arr = rng.standard_normal((6, 4)) * 1e3
        if dtype is np.complex128:
            arr = arr + 1j * rng.standard_normal((6, 4))
        arr = arr.astype(dtype)
        from_array = VectorFamily.from_rows(arr, dim=4).vectors
        from_list = VectorFamily.from_rows([list(r) for r in arr], dim=4).vectors
        assert from_array.dtype == from_list.dtype == np.complex128
        assert from_array.tobytes() == from_list.tobytes()
        assert not from_array.flags.writeable

    def test_empty_array_keeps_its_dimension(self):
        # a 2-d array carries its dimension even with no rows; an empty list does not
        assert VectorFamily.from_rows(np.zeros((0, 3))).vectors.shape == (0, 3)
        assert VectorFamily.from_rows(np.zeros((0, 3)), dim=3).vectors.shape == (0, 3)
        with pytest.raises(ValidationError, match="^family dimension 3 does not match dim=4$"):
            VectorFamily.from_rows(np.zeros((0, 3)), dim=4)
        with pytest.raises(ValidationError, match="explicit dim"):
            VectorFamily.from_rows([])


class TestCombinationNormSq:
    def test_parseval_orthonormal(self):
        assert combination_norm_sq([1.0, 2.0], VectorFamily.from_rows([E1, E2])) == pytest.approx(5.0)

    def test_repeated_vector(self):
        assert combination_norm_sq([1.0, 2.0], VectorFamily.from_rows([E1, E1])) == pytest.approx(9.0)

    def test_unit_imaginary_coefficient(self):
        assert combination_norm_sq([1j], VectorFamily.from_rows([E1])) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match=r"^coefficient vector of length \(1,\) for n=2$"):
            combination_norm_sq([1.0], VectorFamily.from_rows([E1, E2]))

    def test_no_coefficients(self):
        with pytest.raises(IncompatibleInstanceError, match="^requires coefficients$"):
            combination_norm_sq(None, VectorFamily.from_rows([E1, E2]))

    def test_gram_only_input(self):
        g = gram_of_family(VectorFamily.from_rows([E1, E1]))
        assert combination_norm_sq([1.0, 2.0], g) == pytest.approx(9.0)

    # An unvalidated GramMatrix reaches the double-sum checks; a raw array
    # would stop at GramMatrix.validate.

    def test_corrupted_gram_detected(self):
        # A non-Hermitian matrix leaves an imaginary residue in the double sum.
        bad = GramMatrix(np.array([[1.0, 1.0j], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="corrupted"):
            combination_norm_sq([1.0, 1.0], bad)

    @pytest.mark.parametrize(
        "coeffs, gram",
        [([1.0, -1.0], [[1.0, 5.0], [5.0, 1.0]]), ([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]])],
        ids=["indefinite", "negative-diagonal"],
    )
    def test_negative_double_sum_rejected(self, coeffs, gram):
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            combination_norm_sq(coeffs, GramMatrix(np.array(gram)))

    @pytest.mark.parametrize(
        "gram, message",
        [([[1, 5], [5, 1]], "not positive semidefinite"), ([[1, 0.5j], [0.5j, 1]], "not Hermitian")],
        ids=["indefinite", "not-hermitian"],
    )
    def test_raw_array_validated(self, gram, message):
        # both double sums at [1, 0] are 1.0, which passes the double-sum checks
        with pytest.raises(ValidationError, match=message):
            combination_norm_sq([1, 0], gram)

    def test_rounding_sized_negative_clamped(self):
        # a negative double sum within the oracle tolerance of the mass counts as rounding
        g = np.array([[1.0, -1.0 - 1e-12], [-1.0 - 1e-12, 1.0]])
        assert combination_norm_sq([1.0, 1.0], g) == 0.0

    def test_dual_path_oracle_thousand_instances(self):
        # Direct norm of the summed vector vs the Gram double sum, both
        # recomputed here from scratch.  Agreement scale is the absolute mass
        # of the double sum.
        rng = np.random.default_rng(2024)
        worst = 0.0
        for k in range(1000):
            _, fam, coeffs = random_instance(rng, complex_field=bool(k % 2))
            summed = coeffs @ fam
            direct = float(np.vdot(summed, summed).real)
            g = fam @ fam.conj().T
            double_sum = float(np.real(coeffs @ g @ np.conj(coeffs)))
            mass = float(np.abs(coeffs) @ np.abs(g) @ np.abs(coeffs))
            worst = max(worst, abs(direct - double_sum) / mass)
            assert abs(direct - double_sum) <= 1e-10 * mass
        assert worst < 1e-12  # typical agreement is far tighter than required


class TestOrthonormalize:
    def test_hand_example(self):
        out = orthonormalize(VectorFamily.from_rows([[1.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(out.vectors, np.array([E1, E2]), atol=1e-12)

    def test_orthonormal_input_unchanged(self):
        fam = VectorFamily.from_rows([E1, E2])
        np.testing.assert_allclose(orthonormalize(fam).vectors, fam.vectors, atol=1e-12)

    def test_dependent_pair_rejected(self):
        with pytest.raises(RankDeficiencyError):
            orthonormalize(VectorFamily.from_rows([[1.0, 0.0], [2.0, 0.0]]))

    def test_more_vectors_than_dimensions_rejected(self):
        with pytest.raises(RankDeficiencyError):
            orthonormalize(VectorFamily.from_rows([[1.0], [2.0], [3.0]]))

    def test_zero_vector_rejected(self):
        with pytest.raises(RankDeficiencyError):
            orthonormalize(VectorFamily.from_rows([[0.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_random_families(self, complex_field):
        rng = np.random.default_rng(11 if complex_field else 12)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(n, 9))
            _, fam, _ = random_instance(rng, n=n, d=d, complex_field=complex_field)
            out = orthonormalize(VectorFamily(fam))
            g = gram_of_family(out).entries
            np.testing.assert_allclose(g, np.eye(n), atol=1e-12)
            # span preserved: each output is a combination of the inputs
            residual = out.vectors - np.linalg.lstsq(fam.T, out.vectors.T, rcond=None)[0].T @ fam
            assert np.max(np.abs(residual)) < 1e-9
            if not complex_field:
                assert np.all(out.vectors.imag == 0.0)

    def test_empty_family_passthrough(self):
        fam = VectorFamily.from_rows([], dim=2)
        assert orthonormalize(fam).n == 0


class TestGramValidation:
    def test_identity_accepted(self):
        GramMatrix(np.eye(3, dtype=complex)).validate()

    def test_indefinite_rejected(self):
        # eigenvalues of [[1, 2], [2, 1]] are 3 and -1
        with pytest.raises(ValidationError, match="semidefinite"):
            GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)).validate()

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            GramMatrix(np.array([[1.0, 1.0j], [1.0j, 1.0]])).validate()

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="diagonal"):
            GramMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)).validate()

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            GramMatrix(np.array([[np.inf]], dtype=complex))

    def test_psd_tolerance_is_relative(self):
        # scale * [[1, 1 + eps], [1 + eps, 1]] has smallest eigenvalue
        # -eps * scale, against DEFAULT_PSD_TOL = 1e-9 times the largest diagonal entry
        for scale in (1.0, 1e6):
            def near(eps):
                return GramMatrix(scale * np.array([[1.0, 1.0 + eps], [1.0 + eps, 1.0]], dtype=complex))

            near(0.5e-9).validate()
            with pytest.raises(ValidationError, match=rf"below -1e-09 \* {scale}$"):
                near(2e-9).validate()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_constructed_grams_are_psd(self, n, d, seed):
        rng = np.random.default_rng(seed)
        fam = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        g = gram_of_family(VectorFamily(fam))
        g.validate()  # Hermitian + PSD within the default tolerance


class TestProblemInstance:
    def test_real_mode_enforced_structurally(self):
        with pytest.raises(ValidationError, match="real"):
            ProblemInstance.from_vectors([1.0 + 1j], [[1.0]], field_mode="real")

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            ProblemInstance.from_vectors([1.0], [[1.0, 2.0]])

    def test_bordered_identity_accepted(self):
        inst = ProblemInstance.from_bordered_gram(np.eye(3, dtype=complex))
        assert inst.n == 2 and inst.mode == "gram"
        assert inst.x_norm_sq == 1.0

    def test_bordered_indefinite_rejected(self):
        with pytest.raises(ValidationError):
            ProblemInstance.from_bordered_gram(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))

    def test_induced_bordered_consistency(self):
        # Explicit -> bordered preserves |x|^2, (x, y_i), (y_i, y_j).
        rng = np.random.default_rng(5)
        for k in range(200):
            x, fam, _ = random_instance(rng, complex_field=bool(k % 2))
            inst = ProblemInstance.from_vectors(x, fam)
            scale = float(np.abs(x) @ np.abs(x)) + float(np.sum(np.abs(fam) ** 2))
            assert abs(inst.x_norm_sq - np.vdot(x, x).real) <= 1e-12 * scale
            for i in range(fam.shape[0]):
                expected = np.vdot(fam[i], x)
                assert abs(inst.fourier[i] - expected) <= 1e-12 * scale
                for j in range(fam.shape[0]):
                    expected = np.vdot(fam[j], fam[i])
                    assert abs(inst.family_gram.entries[i, j] - expected) <= 1e-12 * scale

    def test_family_gram_is_the_checked_block_copied(self):
        # the family block of the bordered Gram, which passed the finiteness
        # check once: a C-ordered, read-only complex copy, as GramMatrix makes
        rng = np.random.default_rng(9)
        for n in (0, 1, 3, 40):
            x, fam, _ = random_instance(rng, n=n, d=5, complex_field=bool(n % 2))
            for inst in (ProblemInstance.from_vectors(x, fam),
                         ProblemInstance.from_bordered_gram(ProblemInstance.from_vectors(x, fam).bordered)):
                got, made = inst.family_gram, GramMatrix(inst.bordered.entries[1:, 1:])
                assert type(got) is GramMatrix and got.n == inst.n
                assert got.entries.dtype == np.complex128 and got.entries.flags.c_contiguous
                assert not got.entries.flags.writeable
                assert not np.shares_memory(got.entries, inst.bordered.entries)
                assert got.entries.tobytes() == made.entries.tobytes()


class TestInstanceFiles:
    def test_vectors_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        x, fam, coeffs = random_instance(rng, n=3, d=2)
        inst = ProblemInstance.from_vectors(x, fam)
        path = tmp_path / "inst.json"
        save_instance(path, inst, coeffs)
        loaded, loaded_coeffs = load_instance(path)
        assert loaded.mode == "vectors" and loaded.field_mode == "complex"
        np.testing.assert_array_equal(loaded.x, x)
        np.testing.assert_array_equal(loaded.family.vectors, fam)
        np.testing.assert_array_equal(loaded_coeffs, coeffs)

    def test_gram_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        x, fam, _ = random_instance(rng, n=2, d=4)
        bordered = ProblemInstance.from_vectors(x, fam).bordered.entries
        inst = ProblemInstance.from_bordered_gram(bordered)
        path = tmp_path / "gram.json"
        save_instance(path, inst)
        loaded, loaded_coeffs = load_instance(path)
        assert loaded.mode == "gram" and loaded_coeffs is None
        np.testing.assert_array_equal(loaded.bordered.entries, bordered)

    def test_real_mode_rejects_imaginary_parts(self):
        doc = {"field": "real", "mode": "vectors", "x": [[1.0, 0.5]], "y": []}
        with pytest.raises(ValidationError, match="real"):
            instance_from_jsonable(doc)

    def test_unknown_keys_rejected(self):
        doc = {"field": "real", "mode": "vectors", "x": [[1.0, 0.0]], "y": [], "coefs": []}
        with pytest.raises(ValidationError, match="unknown"):
            instance_from_jsonable(doc)

    def test_malformed_pair_rejected(self):
        doc = {"field": "real", "mode": "vectors", "x": [[1.0]], "y": []}
        with pytest.raises(ValidationError):
            instance_from_jsonable(doc)

    @pytest.mark.parametrize(
        "doc, what",
        [
            ({"x": [[10**400, 0]], "y": [[[1, 0]]]}, "x[0]"),
            ({"x": [[1, 0], [0, 0]], "y": [[[1, 0], [0, -(10**400)]]]}, "y[0][1]"),
            ({"mode": "gram", "bordered_gram": [[[1, 0], [0, 0]], [[10**400, 0], [1, 0]]]}, "bordered_gram[1][0]"),
            ({"x": [[1, 0]], "y": [[[1, 0]], [[1, 0]]], "coeffs": [[1, 0], [0, 10**400]]}, "coeffs[1]"),
        ],
        ids=["x", "y", "bordered_gram", "coeffs"],
    )
    def test_integer_beyond_float_range_is_non_finite(self, doc, what):
        # a JSON integer literal of 400 digits decodes to an int that float()
        # cannot hold; it is rejected as the literal 1e400 is, naming its entry
        doc = {"field": "complex", "mode": "vectors", **doc}
        message = f"{what} contains a non-finite number"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            instance_from_jsonable(doc)
        as_inf = json.loads(json.dumps(doc).replace("1" + "0" * 400, "1e400"))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            instance_from_jsonable(as_inf)

    @pytest.mark.parametrize(
        "x, coeffs, what",
        [("[[1, 0]]", f"[[1, 0], [{'9' * 5000}, 0]]", "coeffs[1]"), (f"[[-{'9' * 5000}, 0]]", "[[1, 0], [2, 0]]", "x[0]")],
        ids=["coeffs", "negative-x"],
    )
    def test_integer_beyond_the_digit_limit_is_non_finite(self, tmp_path, x, coeffs, what):
        # beyond Python's 4,300-digit limit on int() of a string, an integer
        # literal still reads as a float, an infinite one, named like 1e400
        path = tmp_path / "huge.json"
        path.write_text(f'{{"field": "real", "mode": "vectors", "x": {x}, "y": [[[1, 0]], [[2, 0]]], "coeffs": {coeffs}}}')
        message = f"{what} contains a non-finite number"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_instance(path)

    def test_non_square_gram_rejected(self):
        doc = {"field": "real", "mode": "gram", "bordered_gram": [[[1.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(ValidationError):
            instance_from_jsonable(doc)

    def test_bad_mode_and_field_rejected(self):
        with pytest.raises(ValidationError):
            instance_from_jsonable({"field": "rational", "mode": "vectors"})
        with pytest.raises(ValidationError):
            instance_from_jsonable({"field": "real", "mode": "sparse"})

    def test_coeff_length_checked(self):
        doc = {
            "field": "real",
            "mode": "vectors",
            "x": [[1.0, 0.0]],
            "y": [[[1.0, 0.0]]],
            "coeffs": [[1.0, 0.0], [2.0, 0.0]],
        }
        with pytest.raises(ValidationError, match="coeffs"):
            instance_from_jsonable(doc)

    def test_invalid_json_text(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_instance(path)

    def test_jsonable_matches_documented_schema(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], [E1, E2], field_mode="real")
        doc = instance_to_jsonable(inst, [1.0, 2.0])
        assert set(doc) == {"field", "mode", "x", "y", "coeffs"}
        assert doc["mode"] == "vectors" and doc["field"] == "real"
        assert doc["x"] == [[1.0, 0.0], [0.0, 0.0]]
        assert doc["coeffs"] == [[1.0, 0.0], [2.0, 0.0]]
        # every number survives a JSON round trip bit-for-bit
        assert json.loads(json.dumps(doc)) == doc
