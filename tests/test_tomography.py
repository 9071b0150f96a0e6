import math

import numpy as np
import pytest

from oamsim.hilbert import NormalizationError, PhotonState, mode
from oamsim.tomography import (
    CLIP_EIGENVALUE,
    StokesVector,
    fidelity,
    intensities,
    reconstruct,
    stokes,
)

SQ2 = 1.0 / math.sqrt(2.0)


def oam_state(coeffs, truncation=8):
    return PhotonState.from_oam(coeffs, truncation).normalized()


def direct_stokes(coeffs):
    """Stokes parameters straight from the coefficient sums (oracle path)."""
    s0 = sum(abs(c) ** 2 for c in coeffs.values())
    s1 = sum(abs(c) ** 2 * (1 if m % 2 == 0 else -1) for m, c in coeffs.items())
    s2 = 0.0
    s3 = 0.0
    evens = {m: c for m, c in coeffs.items() if m % 2 == 0}
    for m, ce in evens.items():
        co = coeffs.get(m + 1, 0j)
        s2 += (ce * co.conjugate() + ce.conjugate() * co).real
        s3 += (1j * (ce * co.conjugate() - ce.conjugate() * co)).real
    return s0, s1, s2, s3


class TestLinearBasis:
    def test_balanced_superposition(self):
        sv = stokes(oam_state({0: 1, 1: 1}))
        assert sv.s0 == pytest.approx(1.0, abs=1e-12)
        assert sv.s1 == pytest.approx(0.0, abs=1e-12)

    def test_pure_even_mode(self):
        state = oam_state({2: 1})
        assert intensities(state)["sorter"]["even_port"] == pytest.approx(1.0, abs=1e-12)
        assert stokes(state).s1 == pytest.approx(1.0, abs=1e-12)

    def test_uneven_weights(self):
        assert stokes(oam_state({0: 0.6, 3: 0.8})).s1 == pytest.approx(0.36 - 0.64, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            intensities(PhotonState({mode(0): 0.5}, 4))


class TestDiagonalBasis:
    def test_real_balanced(self):
        s2 = stokes(oam_state({0: 1, 1: 1})).s2
        assert s2 == pytest.approx(1.0, abs=1e-12)

    def test_quadrature(self):
        s2 = stokes(oam_state({0: 1, 1: 1j})).s2
        assert s2 == pytest.approx(0.0, abs=1e-12)

    def test_four_mode_comb(self):
        # direct sum over the two (even, odd) pairs: (1/4 + 1/4) * 2 = 1
        coeffs = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}
        assert direct_stokes(coeffs)[2] == pytest.approx(1.0)
        s2 = stokes(oam_state(coeffs)).s2
        assert s2 == pytest.approx(1.0, abs=1e-12)


class TestCircularBasis:
    def test_positive_quadrature(self):
        s3 = stokes(oam_state({0: 1, 1: 1j})).s3
        assert s3 == pytest.approx(1.0, abs=1e-12)

    def test_real_superposition(self):
        s3 = stokes(oam_state({0: 1, 1: 1})).s3
        assert s3 == pytest.approx(0.0, abs=1e-12)

    def test_negative_quadrature(self):
        s3 = stokes(oam_state({0: 1, 1: -1j})).s3
        assert s3 == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_circuits_match_direct_formulas(seed):
    rng = np.random.default_rng(seed)
    coeffs = {int(m): complex(*rng.normal(size=2)) for m in range(-4, 6)}
    norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs.values()))
    coeffs = {m: c / norm for m, c in coeffs.items()}
    state = oam_state(coeffs)
    s0, s1, s2, s3 = direct_stokes(coeffs)
    sv = stokes(state)
    assert sv.s0 == pytest.approx(s0, abs=1e-10)
    assert sv.s1 == pytest.approx(s1, abs=1e-10)
    assert sv.s2 == pytest.approx(s2, abs=1e-10)
    assert sv.s3 == pytest.approx(s3, abs=1e-10)


class TestReconstruction:
    def test_even_eigenstate(self):
        rho = reconstruct(StokesVector(1, 1, 0, 0))
        assert not rho.clipped
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_diagonal_eigenstate(self):
        rho = reconstruct(StokesVector(1, 0, 1, 0))
        np.testing.assert_allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_unphysical_vector_clipped(self):
        rho = reconstruct(StokesVector(1, 1.2, 1.2, 0))
        assert rho.clipped
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals.min() >= -1e-12
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_mildly_negative_not_flagged(self):
        # within the tolerance band: reported as-is
        s = 1.0 + 5e-7
        rho = reconstruct(StokesVector(1, s, 0, 0))
        assert not rho.clipped

    def test_closed_form_clip_decision_matches_eigh(self):
        """The clip decision equals the eigh one, and every matrix equals the
        one built by diagonalizing first, bit for bit, on physical and
        unphysical vectors alike."""
        rng = np.random.default_rng(77)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        clipped = 0
        for _ in range(1000):
            s0 = float(rng.uniform(0.0, 2.0))
            direction = rng.normal(size=3)
            s1, s2, s3 = (s0 * rng.uniform(0.5, 1.5) * direction
                          / np.linalg.norm(direction)).tolist()
            rho = 0.5 * (s0 * np.eye(2, dtype=complex) + s1 * sz + s2 * sx + s3 * sy)
            w, vecs = np.linalg.eigh(rho)
            keep = w.min() >= CLIP_EIGENVALUE
            if not keep:
                w = np.clip(w, 0.0, None)
                if w.sum() > 0:
                    w = w / w.sum() * np.real(np.trace(rho))
                rho = vecs @ np.diag(w.astype(complex)) @ vecs.conj().T
            got = reconstruct(StokesVector(s0, s1, s2, s3))
            assert got.clipped is not keep
            assert got.matrix.tobytes() == rho.tobytes()
            clipped += not keep
        assert 300 < clipped < 700


class TestPipeline:
    @pytest.mark.parametrize("seed", range(100))
    def test_random_qubit_fidelity(self, seed):
        rng = np.random.default_rng(10_000 + seed)
        k = int(rng.integers(-3, 3))  # OAM pair (2k, 2k+1) inside the band
        a = complex(*rng.normal(size=2))
        b = complex(*rng.normal(size=2))
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        state = PhotonState({mode(2 * k): a, mode(2 * k + 1): b}, 8)
        rho = reconstruct(stokes(state))
        assert fidelity(rho, (a, b)) >= 1.0 - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_purity_bound(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = {int(m): complex(*rng.normal(size=2)) for m in range(-3, 4)}
        sv = stokes(oam_state(coeffs))
        r2 = sv.s1 ** 2 + sv.s2 ** 2 + sv.s3 ** 2
        assert sv.s0 == pytest.approx(1.0, abs=1e-12)
        assert r2 <= 1.0 + 1e-9

    def test_single_pair_state_saturates_purity(self):
        state = oam_state({2: 0.6, 3: 0.8j})
        sv = stokes(state)
        assert sv.s1 ** 2 + sv.s2 ** 2 + sv.s3 ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_multi_pair_dephased_state_reconstructs_mixed(self):
        # distinct pairs with different relative phases: no claim of purity
        state = oam_state({0: 0.5, 1: 0.5, 4: 0.5, 5: 0.5j})
        rho = reconstruct(stokes(state))
        assert rho.purity() < 1.0 - 1e-3
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals.min() >= -1e-10
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T, atol=1e-12)
