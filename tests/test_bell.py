import math
import tracemalloc

import numpy as np
import pytest

from oamsim.bell import (
    EKERT_BYTES_PER_ROUND,
    EKERT_ROUNDS_LIMIT,
    SHOTS_LIMIT,
    CoincidenceTable,
    ProjectionSetting,
    TSIRELSON,
    VARIANTS,
    TsirelsonError,
    chsh,
    coincidence,
    ekert_run,
    project_single,
    projector_coincidence,
    sample_counts,
    task_rng,
    _bit_string,
    _joint_grid,
)
from oamsim.elements import build_projection
from oamsim.hilbert import DENSE_BYTES_LIMIT, PhotonState, SpectrumModel, mode
from oamsim.soba import dense_coding_roundtrip
from oamsim.sources import PRODUCT_HH, SourceSpec, spdc
from helpers import random_oam_state, random_two_photon, reference_ekert_run

SQ2 = 1.0 / math.sqrt(2.0)

MAX_SETTINGS = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


def vortex_state(truncation=8, spectrum=None):
    spectrum = spectrum or SpectrumModel.uniform()
    return spdc(SourceSpec(1, spectrum, PRODUCT_HH, truncation))


class TestProjectSingle:
    def test_aligned_projector(self):
        s = PhotonState.from_oam({0: SQ2, 1: SQ2}, 8)
        i1, i2 = project_single(s, ProjectionSetting(math.pi / 4.0))
        assert i1 == pytest.approx(1.0, abs=1e-12)
        assert i2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_angle_reads_even_weight(self, seed):
        rng = np.random.default_rng(seed)
        s = random_oam_state(rng, 6, modes=range(-4, 5))
        i1, _ = project_single(s, ProjectionSetting(0.0))
        even = sum(abs(a) ** 2 for k, a in s.amplitudes.items() if k.m % 2 == 0)
        assert i1 == pytest.approx(even, abs=1e-12)

    def test_skewed_qubit_value(self):
        s = PhotonState.from_oam({0: 0.6, 1: 0.8}, 8)
        i1, i2 = project_single(s, ProjectionSetting(math.pi / 4.0))
        assert i1 == pytest.approx(0.98, abs=1e-12)
        assert i2 == pytest.approx(0.02, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_completeness(self, seed):
        rng = np.random.default_rng(40 + seed)
        s = random_oam_state(rng, 6, modes=range(-4, 5))
        theta = float(rng.uniform(0, math.pi))
        i1, i2 = project_single(s, ProjectionSetting(theta))
        assert i1 + i2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_variant_equivalence(self, seed):
        rng = np.random.default_rng(500 + seed)
        s = random_oam_state(rng, 6, modes=range(-4, 5))
        for theta in rng.uniform(0, math.pi, size=5):
            a = project_single(s, ProjectionSetting(float(theta), "tunable_bs"))
            b = project_single(s, ProjectionSetting(float(theta), "polarization"))
            assert a[0] == pytest.approx(b[0], abs=1e-10)
            assert a[1] == pytest.approx(b[1], abs=1e-10)

    def test_polarization_variant_requires_h(self):
        s = PhotonState({mode(0, "V"): 1.0}, 4)
        with pytest.raises(ValueError):
            project_single(s, ProjectionSetting(0.3, "polarization"))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ProjectionSetting(0.1, "holographic")


class TestCoincidence:
    def test_half_way_settings(self):
        tab = coincidence(vortex_state(), 0.0, math.pi / 8.0)
        assert tab.correlation() == pytest.approx(math.cos(math.pi / 8.0) ** 2, abs=1e-9)
        assert tab.correlation() == pytest.approx(0.8535533905932737, abs=1e-9)

    def test_equal_settings_coincide(self):
        tab = coincidence(vortex_state(), 0.7, 0.7)
        assert tab.correlation() == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_settings(self):
        tab = coincidence(vortex_state(), 0.0, math.pi / 2.0)
        assert tab.correlation() == pytest.approx(0.0, abs=1e-9)

    def test_joint_probabilities_sum_to_one(self):
        tab = coincidence(vortex_state(), 0.3, 1.1)
        assert sum(tab.joint().values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cosine_squared_law(self, k):
        state = vortex_state(truncation=k)
        for theta in np.linspace(0, math.pi, 7):
            for chi_ in np.linspace(0, math.pi, 7):
                tab = coincidence(state, float(theta), float(chi_))
                assert tab.correlation() == pytest.approx(
                    math.cos(theta - chi_) ** 2, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_circuit_matches_projector_contraction(self, seed):
        rng = np.random.default_rng(70 + seed)
        spectrum = SpectrumModel.gaussian(float(rng.uniform(0.5, 4.0)))
        state = vortex_state(truncation=8, spectrum=spectrum)
        theta = float(rng.uniform(0, math.pi))
        chi_ = float(rng.uniform(0, math.pi))
        circ = next(_joint_grid(state, ((theta, chi_),), "tunable_bs"))
        direct = projector_coincidence(state, theta, chi_)
        for a, b in zip(circ, direct):
            assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_no_signaling(self, seed):
        rng = np.random.default_rng(90 + seed)
        state = vortex_state()
        theta = float(rng.uniform(0, math.pi))
        marginals = []
        for chi_ in rng.uniform(0, math.pi, size=5):
            d13, d14, _, _ = next(_joint_grid(state, ((theta, float(chi_)),), "tunable_bs"))
            marginals.append(d13 + d14)
        assert max(marginals) - min(marginals) < 1e-10

    def test_sampled_counts(self):
        tab = coincidence(vortex_state(), 0.0, math.pi / 8.0, shots=2000, seed=9)
        assert sum(tab.counts) == 2000
        assert coincidence(vortex_state(), 0.0, math.pi / 8.0).counts is None

    def test_sampling_requires_seed(self):
        with pytest.raises(ValueError):
            coincidence(vortex_state(), 0.0, 0.1, shots=10)


    def test_dark_analyzer_port_has_no_correlation(self):
        # One-term spectrum: photon 1 is even only, so theta = pi/2 is dark.
        state = vortex_state(spectrum=SpectrumModel.from_dict(
            {"kind": "explicit", "coeffs": [[0, 1.0]]}))
        tab = coincidence(state, math.pi / 2.0, math.pi / 8.0)
        with pytest.raises(ValueError):
            tab.correlation()
        with pytest.raises(ValueError):
            tab.correlations()
        lit = CoincidenceTable(0.0, 0.0, 0.25, 0.75, 0.0, 0.0)
        assert lit.correlation() == 0.25
        with pytest.raises(ValueError):
            lit.correlations()


class TestCHSH:
    def test_maximal_violation(self):
        result = chsh(vortex_state(), *MAX_SETTINGS)
        assert result.b == pytest.approx(TSIRELSON, abs=1e-9)

    def test_identical_settings(self):
        result = chsh(vortex_state(), 0.0, 0.0, 0.0, 0.0)
        assert result.b == pytest.approx(2.0, abs=1e-9)

    def test_sampled_estimate_within_5_sigma(self):
        result = chsh(vortex_state(), *MAX_SETTINGS, shots=100_000, seed=23)
        assert result.sigma is not None
        assert abs(result.b - TSIRELSON) < 5.0 * result.sigma

    @pytest.mark.parametrize("seed", range(6))
    def test_quantum_bound_on_random_states(self, seed):
        rng = np.random.default_rng(300 + seed)
        state = random_two_photon(rng, 4, n_terms=8, margin=2)
        angles = rng.uniform(0, math.pi, size=4)
        result = chsh(state, *map(float, angles))
        assert result.b <= TSIRELSON + 1e-9

    def test_analytic_value_above_the_bound_is_a_guard_error(self, monkeypatch):
        e_values = iter([1.0, -1.0, 1.0, 1.0])  # B = 4
        monkeypatch.setattr(CoincidenceTable, "e_value", lambda table: next(e_values))
        with pytest.raises(TsirelsonError, match="exceeds the quantum bound"):
            chsh(vortex_state(), *MAX_SETTINGS)

    def test_e_values_consistent_with_tables(self):
        result = chsh(vortex_state(), *MAX_SETTINGS)
        for key, table in zip(("E(theta,chi)", "E(theta,chi2)",
                               "E(theta2,chi)", "E(theta2,chi2)"), result.tables):
            assert result.e_values[key] == pytest.approx(table.e_value())


class TestEkert:
    def test_ideal_run(self):
        result = ekert_run(vortex_state(), rounds=4000, seed=77)
        assert result.qber == 0.0
        assert result.key_a == result.key_b
        assert len(result.key_a) == result.matched_rounds
        assert abs(result.chsh_estimate - TSIRELSON) < 5.0 * result.chsh_sigma

    def test_deterministic_under_seed(self):
        a = ekert_run(vortex_state(), rounds=500, seed=4)
        b = ekert_run(vortex_state(), rounds=500, seed=4)
        assert a == b

    def test_single_round_without_matched_bases(self):
        state = vortex_state()
        for seed in range(50):
            result = ekert_run(state, rounds=1, seed=seed)
            if result.matched_rounds == 0:
                assert result.key_a == "" and result.key_b == ""
                assert result.qber is None
                break
        else:
            pytest.fail("no seed produced a mismatched single round")

    @pytest.mark.parametrize("n", [0, 1, 10 ** 5])
    def test_key_string_equals_the_joined_bits(self, n):
        bits = (np.random.default_rng(n).integers(0, 4, size=n) // 2).astype(int)
        assert _bit_string(bits) == "".join(map(str, bits))

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            ekert_run(vortex_state(), rounds=0, seed=1)

    def test_rounds_limit_fits_the_byte_budget(self):
        assert EKERT_ROUNDS_LIMIT * EKERT_BYTES_PER_ROUND <= DENSE_BYTES_LIMIT
        assert EKERT_ROUNDS_LIMIT >= 10 ** 6

    def test_bytes_per_round_cover_the_measured_peak(self):
        """The budget covers the peak, which stays within 16 bytes per round:
        one int8 setting index and one int8 outcome per round (two int64
        index arrays, an int64 outcome and pair masks peaked at 32.2)."""
        state = vortex_state()
        ekert_run(state, rounds=100, seed=1)  # builds every analyzer once
        rounds = 10 ** 5
        tracemalloc.start()
        try:
            ekert_run(state, rounds=rounds, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * rounds <= EKERT_BYTES_PER_ROUND * rounds

    def test_equals_the_reference_run(self):
        """Every field, bit for bit, over spectra, K, both variants, round
        counts down to 1 and 2 (setting pairs with no round, an empty key,
        no CHSH estimate) and seeds, plus one run of 1e5 rounds."""
        spectra = (SpectrumModel.uniform(), SpectrumModel.gaussian(1.5),
                   SpectrumModel.explicit({0: 1.0, 1: 0.5 + 0.3j}))
        cases = [(spdc(SourceSpec(1, spectrum, PRODUCT_HH, k)), rounds, seed, variant)
                 for spectrum in spectra for k in (1, 8) for variant in VARIANTS
                 for rounds in (1, 2, 3, 40, 1000) for seed in (0, 1, 2 ** 31 - 1)]
        cases.append((vortex_state(), 10 ** 5, 20260810, "tunable_bs"))
        results = []
        for state, rounds, seed, variant in cases:
            result = ekert_run(state, rounds, seed, variant)
            assert repr(result) == repr(reference_ekert_run(state, rounds, seed, variant))
            results.append(result)
        assert any(r.key_a == "" for r in results)
        assert any(r.chsh_estimate is None for r in results)
        assert any(r.qber is not None and r.qber > 0.0 for r in results)

    def test_too_many_rounds_rejected_before_allocation(self):
        state = vortex_state()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds limit"):
                ekert_run(state, rounds=10 ** 12, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        with pytest.raises(ValueError, match="exceeds limit"):
            ekert_run(state, rounds=EKERT_ROUNDS_LIMIT + 1, seed=1)

    def test_gaussian_spectrum_also_ideal(self):
        state = vortex_state(spectrum=SpectrumModel.gaussian(2.0))
        result = ekert_run(state, rounds=1500, seed=5)
        assert result.qber == 0.0
        assert result.key_a == result.key_b


@pytest.mark.parametrize("seed, call", [
    (-1, lambda pair: ekert_run(pair, 10, -1)),
    (-3, lambda pair: sample_counts([0.5, 0.5], 10, -3)),
    (-2, lambda pair: chsh(pair, *MAX_SETTINGS, shots=10, seed=-2)),
    (-1, lambda pair: dense_coding_roundtrip("01", shots=5, seed=-1)),
], ids=["ekert_run", "sample_counts", "chsh", "dense_coding_roundtrip"])
def test_a_negative_seed_is_named_where_every_draw_enters(seed, call):
    """Every seeded draw enters through task_rng, which names the seed as
    the CLI does instead of leaving it to numpy's unnamed rejection."""
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
        call(vortex_state(4))


def test_task_rng_streams_are_independent_of_order():
    a = task_rng(5, 1, 2).random(4)
    b = task_rng(5, 1, 3).random(4)
    a2 = task_rng(5, 1, 2).random(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_sample_counts_is_one_seeded_multinomial_over_cleaned_probs():
    probs = [0.5, -1e-17, 3e-16, 0.25]
    counts = sample_counts(probs, 1000, 7, 2, 1)
    expected = task_rng(7, 2, 1).multinomial(1000, [2 / 3, 0.0, 0.0, 1 / 3])
    assert np.array_equal(counts, expected)
    with pytest.raises(ValueError, match="requires a seed"):
        sample_counts(probs, 10, None, 2)


def test_sample_counts_takes_shots_up_to_the_c_long_limit():
    counts = sample_counts([0.5, 0.5], SHOTS_LIMIT, 1, 2)
    assert int(counts.sum()) == SHOTS_LIMIT
    with pytest.raises(ValueError, match="exceeds limit"):
        sample_counts([0.5, 0.5], SHOTS_LIMIT + 1, 1, 2)


@pytest.mark.parametrize("value", [True, 2.5, math.nan, "x", [4]], ids=repr)
def test_shots_seed_and_rounds_are_read_by_the_whole_number_rule(value):
    pair = vortex_state(4)
    for what, call in [("shots", lambda: sample_counts([0.5, 0.5], value, 1, 2)),
                       ("seed", lambda: sample_counts([0.5, 0.5], 10, value, 2)),
                       ("rounds", lambda: ekert_run(pair, value, 1)),
                       ("seed", lambda: ekert_run(pair, 10, value))]:
        with pytest.raises(ValueError, match=f"{what} must be an integer, got "):
            call()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_a_non_finite_angle_is_rejected_by_its_own_name(variant, angle):
    """Every library path into a projection names the angle it was given,
    theta or chi, not the splitter's transmission or the plate's angle that
    a non-finite angle would reach."""
    photon, pair = PhotonState.from_oam({0: SQ2, 1: SQ2}, 8), vortex_state()
    calls = [("theta", lambda: build_projection(angle, variant)),
             ("theta", lambda: project_single(photon, ProjectionSetting(angle, variant))),
             ("theta", lambda: coincidence(pair, angle, 0.0, variant)),
             ("chi", lambda: coincidence(pair, 0.0, angle, variant)),
             ("chi", lambda: chsh(pair, *MAX_SETTINGS[:3], angle, variant=variant))]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"projection angle {name} must be finite, got {angle}$"):
            call()


@pytest.mark.parametrize("shots,error", [(-3, "shots must be >= 0, got -3"),
                                         ("abc", "shots must be an integer, got 'abc'"),
                                         (2.5, "shots must be an integer, got 2.5")])
def test_shots_are_read_once_before_any_circuit_work(monkeypatch, shots, error):
    """A negative or non-whole count is named before a source or a circuit is
    touched; -3 used to return the analytic result and "abc" a TypeError."""
    from oamsim import elements, soba
    monkeypatch.setattr(elements, "_apply_pass", lambda *args: pytest.fail("a pass ran"))
    monkeypatch.setattr(soba, "spdc", lambda *args: pytest.fail("a source was built"))
    pair = vortex_state(4)
    for call in (lambda: coincidence(pair, 0.0, 0.3, shots=shots, seed=1),
                 lambda: chsh(pair, *MAX_SETTINGS, shots=shots, seed=1),
                 lambda: dense_coding_roundtrip("01", shots=shots, seed=1)):
        with pytest.raises(ValueError, match=f"^{error}$"):
            call()


def test_a_whole_float_shot_count_samples_as_its_int():
    pair = vortex_state(4)
    assert chsh(pair, *MAX_SETTINGS, shots=100.0, seed=2) == \
        chsh(pair, *MAX_SETTINGS, shots=100, seed=2)
    assert coincidence(pair, 0.1, 0.2, shots="50", seed=2) == \
        coincidence(pair, 0.1, 0.2, shots=50, seed=2)
