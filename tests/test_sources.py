import math

import numpy as np
import pytest

from oamsim.elements import apply_element, half_wave_plate, pc_o_gate
from oamsim.hilbert import (
    EVEN,
    H,
    ODD,
    V,
    SpectrumModel,
    TruncationError,
    TwoPhotonState,
    inner_product,
    mode,
    parity_marginals,
)
from oamsim.sources import (
    PRODUCT_HH,
    SourceSpec,
    canonical_pair_spectrum,
    dropped_weight,
    hybrid_two_photon,
    hyper_source,
    postselect_partner,
    prepare_single_photon_bell,
    source_band,
    spdc,
    vortex_symmetric,
)

SQ2 = 1.0 / math.sqrt(2.0)

SPECTRA = [SpectrumModel.uniform(), SpectrumModel.gaussian(1.5),
           SpectrumModel.gaussian(4.0)]


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 1), (3, 1), (4, 2), (8, 6)])
def test_source_band(k, expected):
    assert source_band(k) == expected


@pytest.mark.parametrize("pump,truncation,error,message", [
    (1, 0, TruncationError, "truncation band must satisfy K >= 1"),
    (1, -3, TruncationError, "truncation band must satisfy K >= 1"),
    (1, 2.5, ValueError, "truncation band must be an integer, got 2.5"),
    (1, True, ValueError, "truncation band must be an integer, got True"),
    (True, 8, ValueError, "pump order must be an integer, got True"),
    (np.True_, 8, ValueError, "pump order must be an integer, got "),
    (2, 8, ValueError, "pump_order must be 0"),
])
def test_source_spec_reads_its_whole_numbers_by_the_one_rule(pump, truncation, error, message):
    with pytest.raises(error, match=message):
        SourceSpec(pump, SpectrumModel.uniform(), PRODUCT_HH, truncation)


@pytest.mark.parametrize("spectrum", ["x", None, 3, {"kind": "uniform"}], ids=repr)
def test_source_spec_rejects_a_spectrum_that_is_no_spectrum_model(spectrum):
    """Named when the spec is built, not as an AttributeError from spdc."""
    with pytest.raises(TypeError, match=f"spectrum must be a SpectrumModel, got {spectrum!r}"):
        SourceSpec(1, spectrum, PRODUCT_HH, 8)
    with pytest.raises(TypeError, match="spectrum must be a SpectrumModel"):
        hyper_source(spectrum, 8)


@pytest.mark.parametrize("pump,truncation", [("1", 8), (1, "8"), (1.0, 8.0),
                                             (np.int64(1), np.int64(8))], ids=repr)
def test_source_spec_keeps_the_ints_it_reads(pump, truncation):
    """An accepted spelling is stored as its int, so the source built from it
    is the vortex pair (m1 + m2 = 1) at K = 8, as from the plain ints."""
    spectrum = SpectrumModel.gaussian(1.5)
    spec, plain = (SourceSpec(pump, spectrum, PRODUCT_HH, truncation),
                   SourceSpec(1, spectrum, PRODUCT_HH, 8))
    assert (type(spec.pump_order), type(spec.truncation)) == (int, int)
    assert spec == plain
    state = spdc(spec)
    assert state.truncation == 8
    assert state.amplitudes == spdc(plain).amplitudes
    assert {k1.m + k2.m for k1, k2 in state.amplitudes} == {1}
    assert dropped_weight(spec) == dropped_weight(plain)


class TestVortexPump:
    def test_uniform_k3_parity_marginals(self):
        state = spdc(SourceSpec(1, SpectrumModel.uniform(), PRODUCT_HH, 3))
        table = parity_marginals(state)
        assert table[(EVEN, ODD)] == pytest.approx(0.5, abs=1e-12)
        assert table[(ODD, EVEN)] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("truncation", [1, 2, 3, 4, 8])
    def test_oam_conservation(self, spectrum, truncation):
        state = spdc(SourceSpec(1, spectrum, PRODUCT_HH, truncation))
        assert len(state) > 0
        for (k1, k2), _ in state.items():
            assert k1.m + k2.m == 1

    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("truncation", [1, 2, 3, 4, 8])
    def test_equal_parity_weights(self, spectrum, truncation):
        state = spdc(SourceSpec(1, spectrum, PRODUCT_HH, truncation))
        even1 = sum(abs(a) ** 2 for (k1, _), a in state.items() if k1.m % 2 == 0)
        assert even1 == pytest.approx(0.5, abs=1e-12)

    def test_single_term_explicit_spectrum(self):
        spec = SourceSpec(1, SpectrumModel.explicit({0: 1.0}), PRODUCT_HH, 4)
        state = spdc(spec)
        assert state.get((mode(0, H), mode(1, H))) == pytest.approx(1.0)
        assert len(state) == 1

    def test_explicit_partner_outside_band_rejected(self):
        # m = -2 is inside the K=8 source band, but its partner 1-m = 3 only
        # just fits; push to the edge where the partner falls out.
        spec = SourceSpec(1, SpectrumModel.explicit({-6: 1.0}), PRODUCT_HH, 8)
        with pytest.raises(TruncationError):
            spdc(spec)

    def test_sources_stay_inside_band(self):
        state = spdc(SourceSpec(1, SpectrumModel.uniform(), PRODUCT_HH, 8))
        band = source_band(8)
        for (k1, k2), _ in state.items():
            assert abs(k1.m) <= band and abs(k2.m) <= band


class TestGaussianPump:
    @pytest.mark.parametrize("spectrum", SPECTRA)
    def test_opposite_oam(self, spectrum):
        state = spdc(SourceSpec(0, spectrum, PRODUCT_HH, 8))
        for (k1, k2), _ in state.items():
            assert k1.m == -k2.m

    def test_same_parity_pairs(self):
        state = spdc(SourceSpec(0, SpectrumModel.gaussian(2.0), PRODUCT_HH, 8))
        table = parity_marginals(state)
        assert table[(EVEN, EVEN)] + table[(ODD, ODD)] == pytest.approx(1.0, abs=1e-12)


class TestDroppedWeight:
    # K = 6 leaves the band |m| <= 4 and the vortex pairs k = -1, 0, 1.
    def test_gaussian_pump_on_each_m(self):
        # independent tail sum over a wide window
        w = {m: math.exp(-(m / 3.0) ** 2) for m in range(-200, 201)}
        expected = sum(x for m, x in w.items() if abs(m) > 4) / sum(w.values())
        spec = SourceSpec(0, SpectrumModel.gaussian(3.0), truncation=6)
        assert dropped_weight(spec) == pytest.approx(expected, rel=1e-9)

    def test_vortex_pump_on_each_pair(self):
        # pair (2k, 2k+1) is weighted at 2k + 1/2 and kept while 2|k| + 1 <= 4
        w = {k: math.exp(-((2 * k + 0.5) / 3.0) ** 2) for k in range(-200, 201)}
        expected = sum(x for k, x in w.items() if abs(k) > 1) / sum(w.values())
        spec = SourceSpec(1, SpectrumModel.gaussian(3.0), truncation=6)
        assert dropped_weight(spec) == pytest.approx(expected, rel=1e-9)

    def test_vortex_pump_with_no_weight_on_its_grid_rejected(self):
        # sigma = 0.01 underflows every pair weight, at 2k + 1/2 and beyond
        spec = SourceSpec(1, SpectrumModel.gaussian(0.01), truncation=6)
        for run in (spdc, dropped_weight):
            with pytest.raises(ValueError, match="vortex spectrum has zero weight on the band"):
                run(spec)

    @pytest.mark.parametrize("pump", [0, 1])
    def test_uniform_and_explicit_drop_nothing(self, pump):
        for spectrum in (SpectrumModel.uniform(), canonical_pair_spectrum()):
            assert dropped_weight(SourceSpec(pump, spectrum, truncation=6)) == 0.0


class TestHyperSource:
    def test_polarization_coincidences(self):
        state = hyper_source(SpectrumModel.uniform(), 8)
        pol = {}
        for (k1, k2), a in state.items():
            pol[(k1.pol, k2.pol)] = pol.get((k1.pol, k2.pol), 0.0) + abs(a) ** 2
        assert pol[(H, H)] == pytest.approx(0.5, abs=1e-12)
        assert pol[(V, V)] == pytest.approx(0.5, abs=1e-12)
        assert (H, V) not in pol and (V, H) not in pol

    def test_parity_marginals(self):
        table = parity_marginals(hyper_source(SpectrumModel.gaussian(2.0), 8))
        assert table[(EVEN, ODD)] == pytest.approx(0.5, abs=1e-12)
        assert table[(ODD, EVEN)] == pytest.approx(0.5, abs=1e-12)

    def test_canonical_explicit_form(self):
        state = hyper_source(SpectrumModel.explicit({0: 1.0}), 8)
        assert state.get((mode(0, H), mode(1, H))) == pytest.approx(SQ2)
        assert state.get((mode(0, V), mode(1, V))) == pytest.approx(SQ2)
        assert len(state) == 2


class TestHybrid:
    def test_photon1_parity_collapses_even(self):
        st = spdc(SourceSpec(1, SpectrumModel.uniform(), PRODUCT_HH, 8))
        hy = hybrid_two_photon(st)
        p_even = sum(abs(a) ** 2 for (k1, _), a in hy.items() if k1.m % 2 == 0)
        assert p_even == pytest.approx(1.0, abs=1e-12)

    def test_polarization_parity_joint_table(self):
        st = spdc(SourceSpec(1, SpectrumModel.gaussian(2.0), PRODUCT_HH, 8))
        hy = hybrid_two_photon(st)
        p_ho = sum(abs(a) ** 2 for (k1, k2), a in hy.items()
                   if k1.pol == H and k2.m % 2 == 1)
        p_ve = sum(abs(a) ** 2 for (k1, k2), a in hy.items()
                   if k1.pol == V and k2.m % 2 == 0)
        assert p_ho == pytest.approx(0.5, abs=1e-12)
        assert p_ve == pytest.approx(0.5, abs=1e-12)

    def test_photon2_polarization_stays_h(self):
        st = spdc(SourceSpec(1, SpectrumModel.uniform(), PRODUCT_HH, 6))
        hy = hybrid_two_photon(st)
        p_h = sum(abs(a) ** 2 for (_, k2), a in hy.items() if k2.pol == H)
        assert p_h == pytest.approx(1.0, abs=1e-12)

    def test_single_term_branch(self):
        st = spdc(SourceSpec(1, SpectrumModel.explicit({0: 1.0}), PRODUCT_HH, 4))
        hy = hybrid_two_photon(st)
        # the (even, H) photon-1 component is untouched
        assert hy.get((mode(0, H), mode(1, H))) == pytest.approx(1.0)

    def test_rejects_wrong_input(self):
        st = hyper_source(SpectrumModel.uniform(), 8)
        with pytest.raises(ValueError):
            hybrid_two_photon(st)
        gauss = spdc(SourceSpec(0, SpectrumModel.uniform(), PRODUCT_HH, 8))
        with pytest.raises(ValueError):
            hybrid_two_photon(gauss)


@pytest.mark.parametrize("func", [hybrid_two_photon, postselect_partner])
def test_a_single_photon_is_rejected(func):
    with pytest.raises(TypeError, match="expected a TwoPhotonState, got PhotonState"):
        func(prepare_single_photon_bell("psi+"))


class TestSpinOrbitBellStates:
    def test_psi_plus_amplitudes(self):
        s = prepare_single_photon_bell("psi+")
        assert s.get(mode(0, H)) == pytest.approx(SQ2)
        assert s.get(mode(1, V)) == pytest.approx(SQ2)

    def test_phi_minus_amplitudes(self):
        s = prepare_single_photon_bell("phi-")
        assert s.get(mode(1, H)) == pytest.approx(SQ2)
        assert s.get(mode(0, V)) == pytest.approx(-SQ2)

    def test_unicode_aliases(self):
        s = prepare_single_photon_bell("ψ−")
        assert s.get(mode(1, V)) == pytest.approx(-SQ2)

    def test_pairwise_orthonormal(self):
        labels = ("psi+", "psi-", "phi+", "phi-")
        states = {lab: prepare_single_photon_bell(lab) for lab in labels}
        for i, a in enumerate(labels):
            for b in labels[i:]:
                overlap = abs(inner_product(states[a], states[b]))
                if a == b:
                    assert overlap == pytest.approx(1.0, abs=1e-12)
                else:
                    assert overlap < 1e-12

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            prepare_single_photon_bell("chi+")

    def test_heralded_circuit_preparation(self):
        # Herald photon 1 into |even, H>, rotate its polarization to the
        # diagonal, then let polarization control a parity flip: psi+.
        pair = spdc(SourceSpec(1, canonical_pair_spectrum(), PRODUCT_HH, 8))
        prob, photon1 = postselect_partner(pair, measured_slot=2,
                                           pol=H, parity_class=ODD)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert photon1.get(mode(0, H)) == pytest.approx(1.0, abs=1e-12)
        rotated = apply_element(half_wave_plate("in", math.pi / 8.0), photon1)
        prepared = pc_o_gate(rotated)
        target = prepare_single_photon_bell("psi+")
        assert abs(inner_product(target, prepared)) == pytest.approx(1.0, abs=1e-12)


class TestSymmetryFlag:
    def test_smooth_spectra_symmetric(self):
        assert vortex_symmetric(SpectrumModel.uniform(), 8)
        assert vortex_symmetric(SpectrumModel.gaussian(0.8), 8)

    def test_explicit_balanced_pair_symmetric(self):
        assert vortex_symmetric(canonical_pair_spectrum(), 8)

    def test_explicit_unbalanced_flagged(self):
        assert not vortex_symmetric(SpectrumModel.explicit({0: 1.0}), 8)
        assert not vortex_symmetric(SpectrumModel.explicit({0: SQ2, 1: SQ2 * 1j}), 8)


class TestPostselection:
    def test_mixed_herald_rejected(self):
        # Photon 2 measured only by polarization here leaves photon 1 mixed:
        # two distinct measured modes would feed the same partner mode.
        amps = {(mode(0, H), mode(1, H)): 0.5, (mode(0, H), mode(3, H)): 0.5,
                (mode(1, H), mode(0, H)): SQ2}
        state = TwoPhotonState(amps, 4).normalized()
        with pytest.raises(ValueError):
            postselect_partner(state, measured_slot=2, parity_class=ODD)

    def test_zero_probability_branch(self):
        pair = spdc(SourceSpec(1, canonical_pair_spectrum(), PRODUCT_HH, 8))
        prob, state = postselect_partner(pair, measured_slot=2, pol=V)
        assert prob == 0.0 and state is None
