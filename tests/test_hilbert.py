import json
import math

import numpy as np
import pytest

from oamsim import hilbert, jsonfmt
from oamsim.hilbert import (
    AMPLITUDE_LIMIT,
    DENSE_BYTES_LIMIT,
    DENSE_DIM_LIMIT,
    EVEN,
    GAUSSIAN_SIGMA_LIMIT,
    H,
    ODD,
    V,
    ModeBasis,
    ModeKey,
    NormalizationError,
    PhotonState,
    SpectrumModel,
    TruncationError,
    TwoPhotonState,
    add_amplitude,
    inner_product,
    mode,
    parity,
    parity_marginals,
    parse_coeff_rows,
    state_to_records,
)
from helpers import AT_PRUNE_EPS, EDGE_VALUES, random_two_photon

SQ2 = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize("m,expected", [(0, EVEN), (-3, ODD), (4, EVEN)])
def test_parity_examples(m, expected):
    assert parity(m) == expected


@pytest.mark.parametrize("m", range(-9, 10))
def test_parity_total_and_sign_independent(m):
    assert parity(m) == parity(-m)
    assert parity(m) in (EVEN, ODD)
    assert (parity(m) == EVEN) == (m % 2 == 0)


class TestInnerProduct:
    def test_orthonormality(self):
        a = PhotonState({mode(1): 1.0}, 4)
        b = PhotonState({mode(2): 1.0}, 4)
        assert inner_product(a, a) == pytest.approx(1.0)
        assert inner_product(a, b) == 0.0

    def test_orthogonal_superpositions(self):
        plus = PhotonState({mode(0): SQ2, mode(1): SQ2}, 4)
        minus = PhotonState({mode(0): SQ2, mode(1): -SQ2}, 4)
        assert abs(inner_product(plus, minus)) < 1e-15

    def test_conjugate_linear_first_argument(self):
        rng = np.random.default_rng(3)
        x = PhotonState({mode(0): complex(*rng.normal(size=2)),
                         mode(1): complex(*rng.normal(size=2))}, 4)
        y = PhotonState({mode(0): complex(*rng.normal(size=2)),
                         mode(1): complex(*rng.normal(size=2))}, 4)
        z = 0.3 - 1.7j
        lhs = inner_product(PhotonState({k: a * z for k, a in x.amplitudes.items()}, 4), y)
        assert lhs == pytest.approx(z.conjugate() * inner_product(x, y))
        assert inner_product(x, x).real >= 0
        assert abs(inner_product(x, x).imag) < 1e-15

    def test_mismatched_truncation_rejected(self):
        a = PhotonState({mode(1): 1.0}, 4)
        b = PhotonState({mode(1): 1.0}, 5)
        with pytest.raises(TruncationError):
            inner_product(a, b)


class TestStates:
    def test_out_of_band_mode_rejected(self):
        with pytest.raises(TruncationError):
            PhotonState({mode(5): 1.0}, 4)
        with pytest.raises(TruncationError):
            TwoPhotonState({(mode(0), mode(9)): 1.0}, 8)

    def test_normalize_hits_unit_norm(self):
        s = PhotonState({mode(0): 3.0, mode(1): 4.0j}, 2).normalized()
        assert abs(s.norm_sq() - 1.0) < 1e-12

    def test_tiny_amplitudes_pruned(self):
        s = PhotonState({mode(0): 1.0, mode(1): 1e-16}, 2)
        assert mode(1) not in s.amplitudes

    def test_zero_state_cannot_normalize(self):
        with pytest.raises(NormalizationError):
            PhotonState({}, 2).normalized()

    def test_mode_key_ordering(self):
        keys = [mode(1, V, "b"), mode(-2, H, "a"), mode(0, H, "b"), mode(3, H, "a")]
        ordered = sorted(keys)
        assert ordered == [mode(-2, H, "a"), mode(3, H, "a"),
                           mode(0, H, "b"), mode(1, V, "b")]

    def test_items_iterates_in_canonical_order(self):
        s = PhotonState({mode(2): 0.5, mode(-1): 0.5, mode(0, V): 0.5}, 4)
        ks = [k for k, _ in s.items()]
        assert ks == sorted(ks)


class TestWholeOamIndex:
    """mode, PhotonState.from_oam and SpectrumModel.explicit read m as a
    spiral phase plate reads its order q: a whole number, never truncated."""

    @pytest.mark.parametrize("m", [2.9, 0.5, -0.7, 1.5, np.float64(-2.5), math.inf, -math.inf])
    def test_a_fractional_index_is_rejected(self, m):
        with pytest.raises(ValueError, match="OAM index must be an integer"):
            mode(m)
        with pytest.raises(ValueError, match="OAM index must be an integer"):
            PhotonState.from_oam({m: 1.0}, 4)
        with pytest.raises(ValueError, match="OAM index must be an integer"):
            SpectrumModel.explicit({0: 1.0, m: 1.0})

    @pytest.mark.parametrize("m,want", [(2, 2), (-3, -3), (np.int64(-3), -3), (2.0, 2),
                                        (np.float64(-1.0), -1), ("3", 3), ("-1", -1),
                                        (10 ** 30, 10 ** 30)])
    def test_a_whole_index_builds_the_same_key(self, m, want):
        key = mode(m)
        assert key == ModeKey("in", H, want) and type(key.m) is int
        assert list(PhotonState.from_oam({m: 1.0}, 10 ** 31).amplitudes) == [key]
        coeffs = SpectrumModel.explicit({m: 0.5}).coeffs
        assert coeffs == ((want, 0.5 + 0j),) and type(coeffs[0][0]) is int

    def test_text_that_int_does_not_read_is_still_rejected(self):
        for m in ("1.5", "2.0", "x"):
            with pytest.raises(ValueError):
                mode(m)


class TestStateCore:
    def test_both_kinds_share_one_body(self):
        pair = TwoPhotonState({(mode(0), mode(1, V, "b")): 3.0}, 2)
        assert not isinstance(pair, PhotonState)
        assert not isinstance(PhotonState({mode(0): 1.0}, 2), TwoPhotonState)
        assert type(pair.normalized()) is TwoPhotonState
        assert type(PhotonState({mode(0): 2.0}, 2).normalized()) is PhotonState
        assert list(pair.modes()) == [mode(0), mode(1, V, "b")]
        assert pair.paths() == ("b", "in")
        with pytest.raises(TypeError):
            inner_product(pair, PhotonState({mode(0): 1.0}, 2))

    @pytest.mark.parametrize("slot", [0, 3, "both"])
    def test_slot_paths_reads_photon_one_or_two_only(self, slot):
        pair = TwoPhotonState({(mode(0), mode(1, V, "b")): 1.0}, 2)
        assert pair.slot_paths(1) == ("in",) and pair.slot_paths(2) == ("b",)
        with pytest.raises(ValueError, match="slot must be 1 or 2 for a two-photon state"):
            pair.slot_paths(slot)

    @pytest.mark.parametrize("state", [
        PhotonState({mode(0): 0.5}, 4),
        TwoPhotonState({(mode(0), mode(1)): 0.5}, 4),
    ], ids=["photon", "pair"])
    def test_require_normalized(self, state):
        with pytest.raises(NormalizationError,
                           match=r"state norm\*\*2 deviates from 1 by 7\.500e-01"):
            state.require_normalized()
        assert state.normalized().require_normalized() is None

    def test_normalized_cleans_as_the_constructor_does(self):
        # 4e-15 falls below PRUNE_EPS only once divided by the norm, about 9.8.
        state = PhotonState({mode(0): 8.0, mode(1): 4j, mode(2): 4e-15,
                             mode(3): complex(4.0, 1e-300)}, 4)
        got = state.normalized()
        want = PhotonState({k: a / state.norm() for k, a in state.amplitudes.items()}, 4)
        assert mode(2) in state.amplitudes and mode(2) not in got.amplitudes
        assert list(got.amplitudes) == list(want.amplitudes)
        assert [repr(a) for a in got.amplitudes.values()] == \
            [repr(a) for a in want.amplitudes.values()]


class TestParityMarginals:
    def test_even_odd_entangled_pair(self):
        amps = {(mode(0), mode(1)): SQ2, (mode(1), mode(0)): SQ2}
        table = parity_marginals(TwoPhotonState(amps, 4))
        assert table[(EVEN, ODD)] == pytest.approx(0.5, abs=1e-12)
        assert table[(ODD, EVEN)] == pytest.approx(0.5, abs=1e-12)
        assert table[(EVEN, EVEN)] == 0.0
        assert table[(ODD, ODD)] == 0.0

    def test_product_state(self):
        table = parity_marginals(TwoPhotonState({(mode(2), mode(4)): 1.0}, 5))
        assert table[(EVEN, EVEN)] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            parity_marginals(TwoPhotonState({(mode(0), mode(0)): 0.7}, 2))

    def test_rejects_a_single_photon(self):
        with pytest.raises(TypeError, match="expected a TwoPhotonState, got PhotonState"):
            parity_marginals(PhotonState({mode(0): 1.0}, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        s = random_two_photon(rng, 5)
        assert sum(parity_marginals(s).values()) == pytest.approx(1.0, abs=1e-12)


class TestSpectrumModel:
    @pytest.mark.parametrize("model", [SpectrumModel.uniform(),
                                       SpectrumModel.gaussian(2.5)])
    def test_realization_normalized(self, model):
        coeffs = model.realize(6)
        assert sum(abs(c) ** 2 for c in coeffs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(c.imag == 0 and c.real >= 0 for c in coeffs.values())

    def test_explicit_keeps_complex_values(self):
        model = SpectrumModel.explicit({0: 1.0, 1: 1.0j})
        coeffs = model.realize(3)
        assert coeffs[1] == pytest.approx(1.0j / math.sqrt(2.0))

    def test_explicit_out_of_band_rejected(self):
        model = SpectrumModel.explicit({7: 1.0})
        with pytest.raises(TruncationError):
            model.realize(6)

    def test_dict_round_trip(self):
        for model in (SpectrumModel.uniform(), SpectrumModel.gaussian(1.25),
                      SpectrumModel.explicit({-2: 0.5, 1: 0.5j})):
            assert SpectrumModel.from_dict(model.to_dict()) == model

    def test_from_dict_rejects_a_non_object(self):
        for value in ([1], 5, "uniform", None):
            with pytest.raises(ValueError, match="JSON object"):
                SpectrumModel.from_dict(value)

    def test_explicit_rows_are_parsed_by_the_shared_parser(self):
        rows = [["0", 0.5], [1.0, 0.25, -0.5], [0, 0.5]]
        model = SpectrumModel.from_dict({"kind": "explicit", "coeffs": rows})
        assert dict(model.coeffs) == parse_coeff_rows(rows)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            SpectrumModel("triangular")
        # sigma**2 underflows to 0 below about 2e-162; above the limit the
        # out-of-band tail loop would run for about 12 * sigma steps.
        for sigma in (-1.0, float("nan"), float("inf"), 1e-300, 1e-170,
                      GAUSSIAN_SIGMA_LIMIT * (1 + 1e-15), 1e9):
            with pytest.raises(ValueError, match="sigma"):
                SpectrumModel.gaussian(sigma)

    def test_gaussian_sigma_limits_are_inclusive(self):
        for sigma in (1e-150, GAUSSIAN_SIGMA_LIMIT):
            assert SpectrumModel.gaussian(sigma).sigma == sigma


class TestSerialization:
    def test_records_in_canonical_order(self):
        s = PhotonState({mode(3): 0.5, mode(-1): 0.5, mode(0, V): 0.5,
                         mode(2, H, "aux"): 0.5}, 4)
        recs = state_to_records(s)
        keys = [ModeKey(r["path"], r["pol"], r["m"]) for r in recs]
        assert keys == sorted(keys)

    def test_floats_carry_17_significant_digits(self):
        s = PhotonState({mode(0): 1.0 / 3.0}, 2)
        text = jsonfmt.dumps(state_to_records(s))
        assert "0.33333333333333331" in text
        # and the text parses back to the exact double
        assert json.loads(text)[0]["re"] == 1.0 / 3.0


class TestModeBasis:
    def test_round_trip(self):
        basis = ModeBasis(("in", "out"), 3)
        s = PhotonState({mode(1): SQ2, mode(-2, V, "out"): SQ2}, 3)
        assert basis.from_vector(basis.to_vector(s)).amplitudes == s.amplitudes

    def test_to_vector_writes_each_amplitude_as_a_loop_does(self):
        basis = ModeBasis(("in", "out"), 3)
        keys = [mode(m, pol, path) for path in ("out", "in") for pol in (V, H)
                for m in range(3, -4, -1)]
        s = PhotonState(dict(zip(keys, EDGE_VALUES * 5)), 3)
        want = np.zeros(basis.size, dtype=complex)
        for key, amp in s.amplitudes.items():
            want[basis.index(key)] = amp
        assert basis.to_vector(s).tobytes() == want.tobytes()

    def test_dimension_guard(self):
        paths = [f"p{i}" for i in range(100)]
        with pytest.raises(ValueError):
            ModeBasis(paths, 50)

    def test_dimension_limit_fits_the_byte_budget(self):
        assert DENSE_DIM_LIMIT == 4096
        assert DENSE_DIM_LIMIT ** 2 * 16 <= DENSE_BYTES_LIMIT
        assert ModeBasis(("a", "b"), 511).size == 4092
        with pytest.raises(ValueError):
            ModeBasis(("a", "b"), 512)

    def test_dimension_checked_before_building_keys(self, monkeypatch):
        def no_keys(*args):
            raise AssertionError("key list built before the dimension check")
        monkeypatch.setattr(hilbert, "ModeKey", no_keys)
        with pytest.raises(ValueError, match="exceeds limit"):
            ModeBasis(("in",), 10 ** 6)

    @pytest.mark.parametrize("truncation", [0, -1])
    def test_band_below_one_raises_like_the_state_constructor(self, truncation, monkeypatch):
        with pytest.raises(TruncationError) as want:
            PhotonState({}, truncation)
        monkeypatch.setattr(hilbert, "ModeKey", None)  # nothing is built first
        with pytest.raises(TruncationError) as got:
            ModeBasis(("in",), truncation)
        assert str(got.value) == str(want.value)
        with pytest.raises(TruncationError):
            hilbert._shared_basis(("in",), truncation)

    def test_mode_off_the_basis_raises_a_value_error_naming_mode_and_basis(self):
        basis = ModeBasis(("in",), 2)
        wide = PhotonState({mode(0): 0.6, mode(4, V): 0.8}, 4)
        pair = TwoPhotonState({(mode(0), mode(1)): 0.6, (mode(0), mode(0, H, "x")): 0.8}, 2)
        for convert, state, key in ((basis.index, mode(3), mode(3)),
                                    (basis.to_vector, wide, mode(4, V)),
                                    (basis.pair_entries, pair, mode(0, H, "x")),
                                    (basis.to_matrix, pair, mode(0, H, "x"))):
            with pytest.raises(ValueError, match="not in the basis") as exc:
                convert(state)
            assert not isinstance(exc.value, KeyError)
            assert repr(key) in str(exc.value) and "('in',) at K=2" in str(exc.value)

    EDGE_VALUES = EDGE_VALUES

    @staticmethod
    def assert_same_state(got, want):
        """Same keys in the same order and the same bits in every part of
        every amplitude (a NaN equals a NaN; -0.0 differs from 0.0)."""
        def bits(state):
            return [(a.real.hex(), a.imag.hex()) for a in state.amplitudes.values()]
        assert list(got.amplitudes) == list(want.amplitudes)
        assert bits(got) == bits(want)

    def test_from_vector_keeps_what_the_constructor_keeps(self):
        basis = ModeBasis(("in",), 3)
        vec = np.zeros(basis.size, dtype=complex)
        vec[:len(self.EDGE_VALUES)] = self.EDGE_VALUES
        got = basis.from_vector(vec)
        want = PhotonState({basis.key_at(i): vec[i] for i in range(basis.size)}, 3)
        self.assert_same_state(got, want)
        assert len(got) == 6 and math.isnan(got.get(basis.key_at(5)).real)
        assert got.get(basis.key_at(7)) == AT_PRUNE_EPS

    def test_from_matrix_keeps_what_the_constructor_keeps(self):
        basis = ModeBasis(("in",), 3)
        mat = np.zeros((basis.size, basis.size), dtype=complex)
        mat[0, :len(self.EDGE_VALUES)] = self.EDGE_VALUES
        mat[1:1 + len(self.EDGE_VALUES), -1] = self.EDGE_VALUES
        got = basis.from_matrix(mat)
        want = TwoPhotonState({(basis.key_at(r), basis.key_at(c)): mat[r, c]
                               for r in range(basis.size) for c in range(basis.size)}, 3)
        self.assert_same_state(got, want)
        assert len(got) == 12 and math.isnan(got.get((basis.key_at(0), basis.key_at(5))).real)
        assert got.get((basis.key_at(8), basis.key_at(13))) == AT_PRUNE_EPS


class TestCoeffRows:
    def test_two_and_three_column_rows_sum_repeated_m(self):
        coeffs = parse_coeff_rows([[0, 1.0], [1, 0.5, -0.25], [0, 0.5, 1.0]])
        assert coeffs == {0: complex(1.5, 1.0), 1: complex(0.5, -0.25)}

    def test_decimal_strings_and_integral_floats_are_integers(self):
        assert parse_coeff_rows([["0", "0.7071"], [-3.0, 0.5]]) == {
            0: complex(0.7071, 0.0), -3: complex(0.5, 0.0)}

    @pytest.mark.parametrize("rows", [
        [[]], [[0]], [[0, 1.0, 0.0, 2.0]], [[1.5, 1.0]], [[True, 1.0]],
        [[None, 1.0]], [["1.5", 1.0]], [[float("inf"), 1.0]], {"0": 1}, [0, 1], 5,
        [[0, float("nan")]], [[0, 1.0, float("inf")]],
        [[0, 1e308], [1, 1e308]], [[0, 0.0, -1e151]], [[0, 1e150], [0, 1e150]],
        [[0, 1e150, 1e150]],
    ])
    def test_malformed_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            parse_coeff_rows(rows)

    def test_magnitudes_at_the_limit_square_finitely(self):
        coeffs = parse_coeff_rows([[0, AMPLITUDE_LIMIT], [1, 0.0, -AMPLITUDE_LIMIT]])
        assert math.isfinite(SpectrumModel.explicit(coeffs).realize(1)[0].real)
        assert math.isfinite(1e8 * AMPLITUDE_LIMIT ** 2)


class TestAddAmplitude:
    def test_sums_into_the_key(self):
        amps = {}
        add_amplitude(amps, "k", 0.5)
        add_amplitude(amps, "k", "0.25", -1)
        assert amps == {"k": complex(0.75, -1.0)}

    @pytest.mark.parametrize("re,im", [
        (float("nan"), 0.0), ("nan", 0.0), (0.0, float("inf")), ("-Infinity", 0.0),
        (1e308, 0.0), (1e308, 1e308),
    ])
    def test_non_finite_or_huge_rejected_and_not_stored(self, re, im):
        amps = {"k": 1.0}
        with pytest.raises(ValueError, match="finite"):
            add_amplitude(amps, "k", re, im)
        assert amps == {"k": 1.0}
