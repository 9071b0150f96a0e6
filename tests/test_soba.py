import itertools
import math

import numpy as np
import pytest

from oamsim.elements import dense_apply, detect
from oamsim.hilbert import (
    H,
    V,
    PhotonState,
    SpectrumModel,
    inner_product,
    mode,
)
from oamsim.soba import (
    BITS_MESSAGE,
    DETECTOR_LABELS,
    MESSAGE_BITS,
    build_soba,
    dense_coding_roundtrip,
    encode_polarization_bell,
    hbsa_decode,
    joint_soba,
    normalize_polarization_label,
    soba_route,
)
from oamsim.sources import (
    canonical_pair_spectrum,
    hyper_source,
    normalize_spin_orbit_label,
    prepare_single_photon_bell,
)
from oamsim import soba
from helpers import reference_dense_coding_roundtrip

SQ2 = 1.0 / math.sqrt(2.0)
SPIN_LABELS = ("psi+", "psi-", "phi+", "phi-")


class TestRouting:
    @pytest.mark.parametrize("label,detector", [
        ("psi+", "D1"), ("psi-", "D2"), ("phi+", "D4"), ("phi-", "D3"),
    ])
    def test_bell_states_route_to_unique_detectors(self, label, detector):
        dist = soba_route(prepare_single_photon_bell(label))
        assert dist[detector] == pytest.approx(1.0, abs=1e-12)
        for d, p in dist.items():
            if d != detector:
                assert p == pytest.approx(0.0, abs=1e-12)

    def test_even_h_splits_between_psi_detectors(self):
        # (psi+ + psi-)/sqrt2 is |even, H>
        s = PhotonState({mode(0, H): 1.0}, 8)
        dist = soba_route(s)
        assert dist["D1"] == pytest.approx(0.5, abs=1e-12)
        assert dist["D2"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_linearity_against_dense_oracle(self, seed):
        rng = np.random.default_rng(800 + seed)
        amps = {mode(m, p): complex(*rng.normal(size=2))
                for m in (0, 1) for p in (H, V)}
        s = PhotonState(amps, 3).normalized()
        dist = soba_route(s)
        dense = dense_apply(build_soba(), s)
        for d in ("D1", "D2", "D3", "D4"):
            assert dist[d] == pytest.approx(detect(dense, d), abs=1e-10)

    def test_rejects_non_canonical_support(self):
        with pytest.raises(ValueError):
            soba_route(PhotonState({mode(2, H): 1.0}, 4))
        with pytest.raises(ValueError):
            soba_route(PhotonState({mode(0, H, "elsewhere"): 1.0}, 4))

    def test_a_pair_is_rejected(self):
        pair = hyper_source(canonical_pair_spectrum(), 4)
        with pytest.raises(TypeError, match="expected a PhotonState, got TwoPhotonState"):
            soba_route(pair)

    def test_works_at_minimal_band(self):
        dist = soba_route(prepare_single_photon_bell("psi+", truncation=1))
        assert dist["D1"] == pytest.approx(1.0, abs=1e-12)


class TestEncoding:
    def test_a_single_photon_is_rejected(self):
        with pytest.raises(TypeError, match="expected a TwoPhotonState, got PhotonState"):
            encode_polarization_bell(prepare_single_photon_bell("psi+"), "Phi+")

    def test_identity_encoding(self):
        state = hyper_source(canonical_pair_spectrum(), 8)
        encoded = encode_polarization_bell(state, "Phi+")
        assert encoded.amplitudes == state.amplitudes

    def test_psi_plus_polarization_factor(self):
        state = hyper_source(canonical_pair_spectrum(), 8)
        encoded = encode_polarization_bell(state, "Psi+")
        # polarization factor (HV + VH)/sqrt2 over both OAM branches
        assert encoded.get((mode(0, V), mode(1, V))) == pytest.approx(0.0)
        for m1, m2 in ((0, 1), (1, 0)):
            assert encoded.get((mode(m1, V), mode(m2, H))) == pytest.approx(0.5)
            assert encoded.get((mode(m1, H), mode(m2, V))) == pytest.approx(0.5)

    def test_four_encodings_mutually_orthogonal(self):
        state = hyper_source(SpectrumModel.uniform(), 8)
        encoded = {lab: encode_polarization_bell(state, lab)
                   for lab in ("Psi+", "Psi-", "Phi+", "Phi-")}
        labels = list(encoded)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                assert abs(inner_product(encoded[a], encoded[b])) < 1e-12

    def test_unicode_label(self):
        state = hyper_source(canonical_pair_spectrum(), 8)
        assert encode_polarization_bell(state, "Φ−").amplitudes == \
            encode_polarization_bell(state, "Phi-").amplitudes


class TestDecodeTable:
    def test_examples(self):
        assert hbsa_decode("psi+", "psi+") == "Psi+"
        assert hbsa_decode("psi+", "phi-") == "Phi-"
        assert hbsa_decode("phi-", "psi-") == "Phi+"

    def test_total_on_all_16_pairs_with_4_per_message(self):
        counts = {}
        for r1, r2 in itertools.product(SPIN_LABELS, repeat=2):
            counts.setdefault(hbsa_decode(r1, r2), []).append((r1, r2))
        assert sorted(counts) == ["Phi+", "Phi-", "Psi+", "Psi-"]
        assert all(len(v) == 4 for v in counts.values())

    def test_decode_accepts_unicode(self):
        assert hbsa_decode("ψ+", "φ−") == "Phi-"


def _expected_pairs(label):
    """Decode preimage of a message, expressed as detector pairs."""
    pairs = []
    for (da, la), (db, lb) in itertools.product(DETECTOR_LABELS.items(), repeat=2):
        if hbsa_decode(la, lb) == label:
            pairs.append((da, db))
    return sorted(pairs)


class TestDenseCoding:
    @pytest.mark.parametrize("message", sorted(BITS_MESSAGE))
    def test_analytic_roundtrip(self, message):
        result = dense_coding_roundtrip(message)
        assert result.accuracy == pytest.approx(1.0, abs=1e-10)
        assert result.message_probs[message] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("message", sorted(BITS_MESSAGE))
    def test_outcome_support_is_the_four_expected_pairs(self, message):
        result = dense_coding_roundtrip(message)
        expected = _expected_pairs(BITS_MESSAGE[message])
        for pair, p in result.pair_probs.items():
            if pair in expected:
                assert p == pytest.approx(0.25, abs=1e-10)
            else:
                assert p < 1e-10

    def test_sampled_roundtrip(self):
        result = dense_coding_roundtrip("10", shots=10_000, seed=3)
        assert result.accuracy == 1.0
        assert sum(result.counts.values()) == 10_000
        expected = set(_expected_pairs("Phi+"))
        assert set(result.counts) <= expected

    def test_multi_pair_spectrum_still_deterministic(self):
        result = dense_coding_roundtrip("01", spectrum=SpectrumModel.uniform(),
                                        truncation=8)
        assert result.accuracy == pytest.approx(1.0, abs=1e-10)

    def test_joint_distribution_sums_to_one(self):
        state = hyper_source(SpectrumModel.uniform(), 8)
        probs = joint_soba(state)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)

    def test_bad_message_rejected(self):
        with pytest.raises(ValueError):
            dense_coding_roundtrip("21")

    def test_sampling_requires_seed(self):
        with pytest.raises(ValueError):
            dense_coding_roundtrip("00", shots=5)

    def test_bit_assignment_fixed(self):
        assert MESSAGE_BITS == {"Psi+": "00", "Psi-": "01",
                                "Phi+": "10", "Phi-": "11"}


def result_repr(result) -> str:
    """Every field of a DenseCodingResult, pair_probs and counts included."""
    return repr((result.sent, result.label, result.message_probs, result.pair_probs,
                 result.accuracy, result.counts))


CHANNEL_SPECTRA = {"canonical": None, "uniform": SpectrumModel.uniform(),
                   "asymmetric": SpectrumModel.explicit({0: 0.8, 1: 0.36 + 0.48j})}


class TestChannelCache:
    """The exact channel is computed once per (message, K, spectrum) and
    every call sees it as a fresh computation would."""

    @pytest.mark.parametrize("spectrum", sorted(CHANNEL_SPECTRA))
    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("shots", [0, 1000])
    def test_equals_a_fresh_computation(self, spectrum, k, shots):
        soba._channel_entry.cache_clear()
        for message in sorted(BITS_MESSAGE):
            kwargs = dict(shots=shots, seed=11 if shots else None, truncation=k,
                          spectrum=CHANNEL_SPECTRA[spectrum])
            want = result_repr(reference_dense_coding_roundtrip(message, **kwargs))
            assert result_repr(dense_coding_roundtrip(message, **kwargs)) == want  # computed
            assert result_repr(dense_coding_roundtrip(message, **kwargs)) == want  # cached
        assert soba._channel_entry.cache_info().currsize == len(BITS_MESSAGE)

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_a_returned_dict_is_the_caller_s_own(self, shots):
        seed = 5 if shots else None
        first = dense_coding_roundtrip("11", shots=shots, seed=seed)
        want = result_repr(first)
        first.pair_probs.clear()
        first.message_probs["11"] = -1.0
        first.pair_probs[("D1", "D1")] = 2.0
        assert result_repr(dense_coding_roundtrip("11", shots=shots, seed=seed)) == want

    def test_spectra_that_are_equal_but_differ_in_bits_get_their_own_entries(self):
        minus, plus = (SpectrumModel.explicit({0: zero, 1: 1.0}) for zero in (-0.0, 0.0))
        assert minus == plus and repr(minus) != repr(plus)
        soba._channel_entry.cache_clear()
        dense_coding_roundtrip("00", spectrum=minus)
        dense_coding_roundtrip("00", spectrum=plus)
        assert soba._channel_entry.cache_info().currsize == 2
        dense_coding_roundtrip("00", spectrum=plus)
        assert soba._channel_entry.cache_info().hits == 1

    def test_the_sampled_draw_stays_per_call(self):
        draws = {tuple(dense_coding_roundtrip("10", shots=100, seed=seed).counts.items())
                 for seed in range(5)}
        assert len(draws) > 1

    @pytest.mark.parametrize("spectrum", ["x", 3, SpectrumModel], ids=repr)
    def test_a_spectrum_that_is_no_model_is_named_before_the_cache(self, spectrum):
        before = soba._channel_entry.cache_info()
        with pytest.raises(TypeError, match="spectrum must be a SpectrumModel"):
            dense_coding_roundtrip("00", spectrum=spectrum)
        assert soba._channel_entry.cache_info() == before

    def test_the_decode_table_is_hbsa_decode(self):
        for (d1, d2), bits in soba._PAIR_MESSAGE.items():
            assert bits == MESSAGE_BITS[hbsa_decode(DETECTOR_LABELS[d1], DETECTOR_LABELS[d2])]
        assert len(soba._PAIR_MESSAGE) == 16


class TestBellLabels:
    """One rule reads both label families: ψ/Ψ and φ/Φ and the minus sign
    "−" are spelled in ASCII, and only a label of the family is taken."""

    SPIN_ORBIT = {"psi+": ["psi+", "ψ+"], "psi-": ["psi-", "ψ-", "ψ−", "psi−"],
                  "phi+": ["phi+", "φ+"], "phi-": ["phi-", "φ-", "φ−", "phi−"]}
    POLARIZATION = {"Psi+": ["Psi+", "Ψ+"], "Psi-": ["Psi-", "Ψ-", "Ψ−", "Psi−"],
                    "Phi+": ["Phi+", "Φ+"], "Phi-": ["Phi-", "Φ-", "Φ−", "Phi−"]}
    FAMILIES = [(normalize_spin_orbit_label, SPIN_ORBIT, "spin-orbit state"),
                (normalize_polarization_label, POLARIZATION, "polarization Bell")]

    @pytest.mark.parametrize("normalize,family,what", FAMILIES,
                             ids=["spin_orbit", "polarization"])
    def test_every_spelling_normalizes_to_its_ascii_label(self, normalize, family, what):
        for label, spellings in family.items():
            for spelling in spellings:
                assert normalize(spelling) == label

    @pytest.mark.parametrize("normalize,family,what", FAMILIES,
                             ids=["spin_orbit", "polarization"])
    @pytest.mark.parametrize("label", ["chi+", "psi", "PSI+", "ψ", "", 5, None, ["psi+"],
                                       ("Psi+",), b"psi+", {"phi-": 1}], ids=repr)
    def test_anything_else_is_a_value_error(self, normalize, family, what, label):
        with pytest.raises(ValueError, match=f"unknown {what} label"):
            normalize(label)

    def test_one_family_does_not_take_the_others_labels(self):
        for spelling in [s for spellings in self.POLARIZATION.values() for s in spellings]:
            with pytest.raises(ValueError):
                normalize_spin_orbit_label(spelling)
        for spelling in [s for spellings in self.SPIN_ORBIT.values() for s in spellings]:
            with pytest.raises(ValueError):
                normalize_polarization_label(spelling)
