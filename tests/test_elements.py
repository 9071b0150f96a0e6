import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oamsim import elements
from oamsim.elements import (
    ACTION_CACHE_SIZE,
    WRAP_GUARD,
    Circuit,
    Element,
    WrapGuardError,
    _action_table,
    _assert_local_unitary,
    _key_action,
    apply_circuit,
    apply_element,
    beam_splitter,
    build_projection,
    build_s2_setup,
    build_s3_setup,
    build_sorter,
    circuit_to_dict,
    circuit_unitary,
    coincidence_detect,
    dense_apply,
    detect,
    dove_prism,
    element_matrix,
    half_wave_plate,
    joint_readout,
    mirror,
    phase_delay,
    polarizing_bs,
    readout,
    spiral_phase_plate,
)
from oamsim.hilbert import (
    H,
    V,
    ModeBasis,
    PhotonState,
    TwoPhotonState,
    mode,
)
from oamsim.soba import build_soba
from helpers import (
    pool_paths,
    random_circuit,
    random_full_state,
    random_oam_state,
    random_two_photon,
)

SQ2 = 1.0 / math.sqrt(2.0)


class TestSingleElements:
    def test_dove_pi_flips_odd_modes(self):
        s = PhotonState({mode(3): 1.0}, 4)
        out = apply_element(dove_prism("in", math.pi), s)
        assert out.get(mode(3)) == pytest.approx(-1.0, abs=1e-12)

    def test_dove_pi_leaves_even_modes(self):
        s = PhotonState({mode(2): 1.0}, 4)
        out = apply_element(dove_prism("in", math.pi), s)
        assert out.get(mode(2)) == pytest.approx(1.0, abs=1e-12)

    def test_spiral_plate_turns_odd_support_even(self):
        rng = np.random.default_rng(1)
        s = random_oam_state(rng, 6, modes=(-3, -1, 1, 3))
        out = apply_element(spiral_phase_plate("in", +1), s)
        assert all(k.m % 2 == 0 for k in out.amplitudes)
        for m in (-3, -1, 1, 3):
            assert out.get(mode(m + 1)) == pytest.approx(s.get(mode(m)))

    def test_spiral_plate_pair_is_identity_away_from_edge(self):
        rng = np.random.default_rng(2)
        s = random_oam_state(rng, 6, modes=range(-4, 5))
        out = apply_element(spiral_phase_plate("in", +1), s)
        out = apply_element(spiral_phase_plate("in", -1), out)
        for key, amp in s.amplitudes.items():
            assert out.get(key) == pytest.approx(amp, abs=1e-12)

    def test_spiral_plate_wrap_guard(self):
        s = PhotonState({mode(4): 1.0}, 4)
        with pytest.raises(WrapGuardError):
            apply_element(spiral_phase_plate("in", +1), s)
        # disabled guard wraps cyclically and preserves norm
        out = apply_element(spiral_phase_plate("in", +1), s, wrap_guard=None)
        assert out.get(mode(-4)) == pytest.approx(1.0)

    def test_half_wave_plate_is_an_involution(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0, math.pi, size=6):
            s = PhotonState({mode(0, H): complex(*rng.normal(size=2)),
                             mode(0, V): complex(*rng.normal(size=2))}, 2).normalized()
            hwp = half_wave_plate("in", float(theta))
            out = apply_element(hwp, apply_element(hwp, s))
            for key, amp in s.amplitudes.items():
                assert out.get(key) == pytest.approx(amp, abs=1e-12)

    def test_hadamard_like_hwp(self):
        s = PhotonState({mode(0, H): 1.0}, 2)
        out = apply_element(half_wave_plate("in", math.pi / 8.0), s)
        assert out.get(mode(0, H)) == pytest.approx(SQ2)
        assert out.get(mode(0, V)) == pytest.approx(SQ2)

    @pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 9))
    def test_beam_splitter_unitary_for_all_t(self, t):
        elem = beam_splitter("a", "b", "c", "d", t=float(t))
        basis = ModeBasis(("a", "b", "c", "d"), 1)
        u = element_matrix(elem, basis)
        assert np.abs(u.conj().T @ u - np.eye(basis.size)).max() < 1e-12

    def test_pbs_routing(self):
        elem = polarizing_bs("a", "b", "c", "d")
        sh = PhotonState({mode(0, H, "a"): 1.0}, 1)
        sv = PhotonState({mode(0, V, "a"): 1.0}, 1)
        assert apply_element(elem, sh).get(mode(0, H, "c")) == pytest.approx(1.0)
        assert apply_element(elem, sv).get(mode(0, V, "d")) == pytest.approx(1.0j)

    def test_mirror_relabels_path(self):
        s = PhotonState({mode(1, H, "a"): 1.0}, 2)
        out = apply_element(mirror("a", "b"), s)
        assert out.get(mode(1, H, "b")) == pytest.approx(1.0)

    def test_bad_ports_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter("a", "b", "a", "d")
        with pytest.raises(ValueError):
            beam_splitter("a", "b", "c", "d", t=1.2)
        with pytest.raises(ValueError):
            mirror("a", "a")

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_wave_plate_angle_rejected(self, theta):
        with pytest.raises(ValueError):
            half_wave_plate("in", theta)

    @pytest.mark.parametrize("entries", [
        (math.nan, 0.0, 0.0, 1.0),
        (1.0, math.nan, 0.0, 1.0),
        (1.0, 0.0, 0.0, 1.0 + 2e-12),
        (1.0, 2e-12, 0.0, 1.0),
    ])
    def test_local_unitary_check_fails_on_nan_and_gaps(self, entries):
        with pytest.raises(ValueError):
            _assert_local_unitary(*entries)
        _assert_local_unitary(SQ2, 1j * SQ2, 1j * SQ2, SQ2 + 5e-13)


class TestSorter:
    def test_even_mode_exits_even_port(self):
        out = apply_circuit(build_sorter(), PhotonState({mode(4): 1.0}, 8))
        assert detect(out, "even_port") == pytest.approx(1.0, abs=1e-12)
        assert detect(out, "odd_port") == pytest.approx(0.0, abs=1e-12)

    def test_odd_mode_exits_odd_port(self):
        out = apply_circuit(build_sorter(), PhotonState({mode(1): 1.0}, 8))
        assert detect(out, "odd_port") == pytest.approx(1.0, abs=1e-12)

    def test_balanced_superposition_splits_evenly(self):
        s = PhotonState({mode(0): SQ2, mode(1): SQ2}, 8)
        out = apply_circuit(build_sorter(), s)
        assert detect(out, "even_port") == pytest.approx(0.5, abs=1e-12)
        assert detect(out, "odd_port") == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", range(-8, 9))
    def test_every_band_mode_routes_exactly(self, m):
        out = apply_circuit(build_sorter(), PhotonState({mode(m): 1.0}, 8))
        port = "even_port" if m % 2 == 0 else "odd_port"
        assert detect(out, port) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_detected_intensity_matches_coefficient_sum(self, seed):
        rng = np.random.default_rng(seed)
        s = random_oam_state(rng, 6, modes=range(-4, 5))
        out = apply_circuit(build_sorter(), s)
        even_weight = sum(abs(a) ** 2 for k, a in s.amplitudes.items() if k.m % 2 == 0)
        assert detect(out, "even_port") == pytest.approx(even_weight, abs=1e-12)
        assert detect(out, "odd_port") == pytest.approx(1 - even_weight, abs=1e-12)

    def test_two_photon_coincidence_through_sorters(self):
        amps = {(mode(0), mode(1)): SQ2, (mode(1), mode(0)): SQ2}
        s = TwoPhotonState(amps, 4)
        out = apply_circuit(build_sorter(), s, slot=1)
        out = apply_circuit(build_sorter(), out, slot=2)
        assert coincidence_detect(out, "even_port", "odd_port") == pytest.approx(0.5, abs=1e-12)
        assert coincidence_detect(out, "odd_port", "even_port") == pytest.approx(0.5, abs=1e-12)
        assert coincidence_detect(out, "even_port", "even_port") == pytest.approx(0.0, abs=1e-12)


class TestCircuits:
    def test_identity_circuit_preserves_state(self):
        rng = np.random.default_rng(7)
        s = random_full_state(rng, 3)
        circuit = Circuit("identity", (), "in", ())
        out = apply_circuit(circuit, s)
        assert out.amplitudes == s.amplitudes
        dense = dense_apply(circuit, s)
        for key, amp in s.amplitudes.items():
            assert dense.get(key) == pytest.approx(amp, abs=1e-15)

    def test_detector_paths_validated(self):
        with pytest.raises(ValueError):
            Circuit("bad", (), "in", ("nowhere",))

    @pytest.mark.parametrize("builder", [build_sorter, build_s2_setup, build_s3_setup,
                                         lambda: build_projection(0.6),
                                         lambda: build_projection(0.6, "polarization")])
    def test_builtin_circuits_unitary(self, builder):
        u, basis = circuit_unitary(builder(), 3)
        assert np.abs(u.conj().T @ u - np.eye(basis.size)).max() < 1e-10

    def test_sorter_matches_dense_oracle_on_single_mode(self):
        circuit = build_sorter()
        s = PhotonState({mode(4): 1.0}, 5)
        sparse = apply_circuit(circuit, s)
        dense = dense_apply(circuit, s)
        basis = ModeBasis(circuit.paths(), 5)
        diff = np.abs(basis.to_vector(sparse) - basis.to_vector(dense)).max()
        assert diff < 1e-10

    @pytest.mark.parametrize("seed", range(12))
    def test_random_stacks_match_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        circuit = random_circuit(rng, int(rng.integers(1, 13)))
        state = random_full_state(rng, 2, paths=pool_paths())
        sparse = apply_circuit(circuit, state, wrap_guard=None)
        dense = dense_apply(circuit, state)
        basis = ModeBasis(set(circuit.paths()) | set(pool_paths()), 2)
        diff = np.abs(basis.to_vector(sparse) - basis.to_vector(dense)).max()
        assert diff < 1e-10
        assert abs(sparse.norm() - 1.0) < 1e-12

    def test_two_photon_dense_oracle(self):
        rng = np.random.default_rng(21)
        circuit = build_sorter()
        amps = {(mode(0), mode(1)): SQ2, (mode(1), mode(0)): SQ2 * 1j}
        s = TwoPhotonState(amps, 3)
        sparse = apply_circuit(circuit, s, slot=2)
        dense = dense_apply(circuit, s, slot=2)
        basis = ModeBasis(circuit.paths(), 3)
        diff = np.abs(basis.to_matrix(sparse) - basis.to_matrix(dense)).max()
        assert diff < 1e-10

    def test_pruning_never_moves_probabilities(self):
        # The dense product keeps every amplitude, however small.
        rng = np.random.default_rng(5)
        s = random_oam_state(rng, 6, modes=range(-4, 5))
        circuit = build_s2_setup()
        pruned = apply_circuit(circuit, s)
        u, basis = circuit_unitary(circuit, 6)
        raw = u @ basis.to_vector(s)
        assert len(pruned) < np.count_nonzero(raw)  # some amplitudes were pruned
        for port in circuit.detector_paths:
            want = sum(abs(raw[i]) ** 2 for i in range(basis.size)
                       if basis.key_at(i).path == port)
            assert abs(detect(pruned, port) - want) < 1e-12

    def test_norm_preserved_through_builtins(self):
        rng = np.random.default_rng(6)
        for builder in (build_sorter, build_s2_setup, build_s3_setup):
            s = random_oam_state(rng, 6, modes=range(-4, 5))
            out = apply_circuit(builder(), s)
            assert abs(out.norm() - s.norm()) < 1e-12


BUILTIN_SETUPS = {
    "sorter": build_sorter,
    "s2_setup": build_s2_setup,
    "s3_setup": build_s3_setup,
    "projection_tunable": lambda: build_projection(0.6),
    "projection_tunable_obtuse": lambda: build_projection(2.2),
    "projection_polarization": lambda: build_projection(0.6, "polarization"),
    "soba": build_soba,
}


def with_all_detectors(circuit):
    """The circuit with a detector on every path it knows."""
    return Circuit(circuit.name, circuit.elements, circuit.input_path, circuit.paths())


def random_pool_pair(rng, truncation):
    """Product of two random single-photon states over three pool paths."""
    a = random_full_state(rng, truncation, paths=pool_paths()[:3])
    b = random_full_state(rng, truncation, paths=pool_paths()[:3])
    return TwoPhotonState({(k1, k2): x * y for k1, x in a.amplitudes.items()
                           for k2, y in b.amplitudes.items()}, truncation)


class TestReadout:
    """readout/joint_readout give exactly the per-port detect/coincidence_detect values."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SETUPS))
    @pytest.mark.parametrize("seed", range(3))
    def test_builtin_single_photon(self, name, seed):
        rng = np.random.default_rng(300 + seed)
        circuit = BUILTIN_SETUPS[name]()
        state = random_full_state(rng, 4)
        probs = readout(circuit, state, wrap_guard=None)
        out = apply_circuit(circuit, state, wrap_guard=None)
        assert tuple(probs) == circuit.detector_paths
        assert probs == {p: detect(out, p) for p in circuit.detector_paths}

    @pytest.mark.parametrize("name", sorted(BUILTIN_SETUPS))
    def test_builtin_pair(self, name):
        rng = np.random.default_rng(310)
        circuit = BUILTIN_SETUPS[name]()
        pair = random_two_photon(rng, 4, n_terms=10)
        probs = joint_readout(circuit, circuit, pair, wrap_guard=None)
        out = apply_circuit(circuit, pair, slot=1, wrap_guard=None)
        out = apply_circuit(circuit, out, slot=2, wrap_guard=None)
        dets = circuit.detector_paths
        assert list(probs) == [(a, b) for a in dets for b in dets]
        assert probs == {(a, b): coincidence_detect(out, a, b) for a, b in probs}

    def test_projection_pair_with_two_circuits(self):
        rng = np.random.default_rng(311)
        alice, bob = build_projection(0.3), build_projection(1.1)
        pair = random_two_photon(rng, 6, n_terms=12, margin=1)
        probs = joint_readout(alice, bob, pair)
        out = apply_circuit(bob, apply_circuit(alice, pair, slot=1), slot=2)
        assert probs == {(a, b): coincidence_detect(out, a, b) for a, b in probs}

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(320 + seed)
        c1 = with_all_detectors(random_circuit(rng, int(rng.integers(1, 9))))
        c2 = with_all_detectors(random_circuit(rng, int(rng.integers(1, 9))))
        single = random_full_state(rng, 2, paths=pool_paths()[:2])
        out = apply_circuit(c1, single, wrap_guard=None)
        assert readout(c1, single, wrap_guard=None) == {
            p: detect(out, p) for p in c1.detector_paths}
        pair = random_pool_pair(rng, 2)
        out = apply_circuit(c1, pair, slot=1, wrap_guard=None)
        out = apply_circuit(c2, out, slot=2, wrap_guard=None)
        probs = joint_readout(c1, c2, pair, wrap_guard=None)
        assert probs == {(a, b): coincidence_detect(out, a, b) for a, b in probs}
        assert sum(probs.values()) <= 1.0 + 1e-12

    def test_dark_detector_reads_zero(self):
        # "c" is fed only from the empty path "b".
        circuit = Circuit("dark", (mirror("in", "a"), mirror("b", "c")), "in", ("a", "c"))
        state = PhotonState({mode(1): SQ2, mode(2, V): SQ2}, 3)
        assert readout(circuit, state) == {"a": detect(state, "in"), "c": 0.0}
        pair = TwoPhotonState({(mode(0), mode(1)): 1.0}, 3)
        assert joint_readout(circuit, circuit, pair) == {
            ("a", "a"): 1.0, ("a", "c"): 0.0, ("c", "a"): 0.0, ("c", "c"): 0.0}

    def test_wrap_guard_is_passed_on(self):
        # The even arm's +1 spiral plate pushes m = 2 across the K = 2 edge.
        state = PhotonState({mode(2): 1.0}, 2)
        with pytest.raises(WrapGuardError):
            readout(build_s2_setup(), state)
        assert sum(readout(build_s2_setup(), state, wrap_guard=None).values()) == \
            pytest.approx(1.0, abs=1e-12)
        pair = TwoPhotonState({(mode(0), mode(2)): 1.0}, 2)
        with pytest.raises(WrapGuardError):
            joint_readout(build_sorter(), build_s2_setup(), pair)


def reference_apply_circuit(circuit, state, slot="both", wrap_guard=WRAP_GUARD):
    """The evolution without action tables (reference): each element's pass
    calls _key_action for every term, then a state is built from its output."""
    idxs = (None,) if isinstance(state, PhotonState) else \
        (0, 1) if slot == "both" else (slot - 1,)
    for elem in circuit.elements:
        amps = state.amplitudes
        for idx in idxs:
            out = {}
            wrapped_weight = 0.0
            for key, amp in amps.items():
                mode_key = key if idx is None else key[idx]
                for new_key, factor, wrapped in _key_action(elem, mode_key,
                                                            state.truncation):
                    contrib = amp * factor
                    if wrapped:
                        wrapped_weight += abs(contrib) ** 2
                    if idx is not None:
                        new_key = (new_key, key[1]) if idx == 0 else (key[0], new_key)
                    out[new_key] = out.get(new_key, 0.0 + 0.0j) + contrib
            if wrap_guard is not None and wrapped_weight > wrap_guard:
                raise WrapGuardError(elem.kind)
            amps = out
        state = type(state)(amps, state.truncation)
    return state


def assert_bit_identical(got, want):
    """Same kind, band, keys in the same order and the same repr per amplitude
    (so signed zeros and the last bit count)."""
    assert type(got) is type(want) and got.truncation == want.truncation
    assert list(got.amplitudes) == list(want.amplitudes)
    assert [repr(a) for a in got.amplitudes.values()] == \
        [repr(a) for a in want.amplitudes.values()]


def assert_matches_reference(circuit, state, **kwargs):
    """Cold tables, then warm tables, both equal to the reference."""
    want = reference_apply_circuit(circuit, state, **kwargs)
    elements._table.cache_clear()
    assert_bit_identical(apply_circuit(circuit, state, **kwargs), want)
    assert_bit_identical(apply_circuit(circuit, state, **kwargs), want)


class TestActionCache:
    """apply_circuit through the action tables equals the per-element
    reference evolution bit for bit."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SETUPS))
    @pytest.mark.parametrize("guarded", [True, False])
    def test_builtin_single_photon(self, name, guarded):
        rng = np.random.default_rng(400)
        circuit = BUILTIN_SETUPS[name]()
        full = random_full_state(rng, 4)
        inner = random_oam_state(rng, 8, modes=range(-6, 6))  # clear of the band edge
        if guarded:
            assert_matches_reference(circuit, inner)
        else:
            assert_matches_reference(circuit, full, wrap_guard=None)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SETUPS))
    @pytest.mark.parametrize("slot", [1, 2, "both"])
    def test_builtin_pair(self, name, slot):
        rng = np.random.default_rng(410)
        pair = random_two_photon(rng, 4, n_terms=10)
        assert_matches_reference(BUILTIN_SETUPS[name](), pair, slot=slot,
                                 wrap_guard=None)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits(self, seed):
        rng = np.random.default_rng(420 + seed)
        circuit = random_circuit(rng, int(rng.integers(1, 13)))
        single = random_full_state(rng, 2, paths=pool_paths())
        pair = random_pool_pair(rng, 2)
        assert_matches_reference(circuit, single, wrap_guard=None)
        for slot in (1, 2, "both"):
            assert_matches_reference(circuit, pair, slot=slot, wrap_guard=None)

    def test_every_kind_including_gates(self):
        rng = np.random.default_rng(430)
        circuit = Circuit("kinds", ONE_OF_EACH_KIND, "p0", ())
        assert_matches_reference(circuit, random_full_state(rng, 3, paths=pool_paths()),
                                 wrap_guard=None)
        assert_matches_reference(circuit, random_pool_pair(rng, 2), wrap_guard=None)

    def test_wrap_guard_fires_as_in_the_reference(self):
        state = PhotonState({mode(2): 1.0}, 2)
        for run in (reference_apply_circuit, apply_circuit):
            with pytest.raises(WrapGuardError):
                run(build_s2_setup(), state)

    def test_signed_zero_parameters_never_share_a_table(self):
        plus, minus = half_wave_plate("in", 0.0), half_wave_plate("in", -0.0)
        assert plus == minus and hash(plus) == hash(minus)
        state = PhotonState({mode(0, H): 1.0}, 2)
        apply_element(plus, state)
        apply_element(minus, state)
        assert _action_table(plus, 2) is not _action_table(minus, 2)
        assert repr(_action_table(plus, 2)[mode(0, H)][1][1]) == "0.0"
        assert repr(_action_table(minus, 2)[mode(0, H)][1][1]) == "-0.0"

    def test_cache_holds_at_most_its_bound(self):
        state = PhotonState({mode(0, H): 1.0}, 2)
        plates = [phase_delay("in", 0.01 * n) for n in range(ACTION_CACHE_SIZE + 10)]
        elements._table.cache_clear()
        for plate in plates:
            apply_element(plate, state)
            assert elements._table.cache_info().currsize <= ACTION_CACHE_SIZE
        assert elements._table.cache_info().currsize == ACTION_CACHE_SIZE
        # least recently used first out: the newest tables are the ones kept
        misses = elements._table.cache_info().misses
        for plate in plates[-ACTION_CACHE_SIZE:]:
            _action_table(plate, 2)
        assert elements._table.cache_info().misses == misses
        _action_table(plates[0], 2)
        assert elements._table.cache_info().misses == misses + 1

    def test_elements_hash_and_equal_elements_hash_equal(self):
        a = beam_splitter("a", "b", "c", "d", t=0.3)
        b = beam_splitter("a", "b", "c", "d", t=0.3)
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, beam_splitter("a", "b", "c", "d", t=0.4)}) == 2
        assert hash(Element("oc_p", ("p1",), ("p1",))) == hash(Element("oc_p", ("p1",), ("p1",)))

    def test_circuits_still_pickle_and_copy(self):
        circuit = build_soba()
        for clone in (pickle.loads(pickle.dumps(circuit)), copy.deepcopy(circuit)):
            assert clone == circuit and clone is not circuit
            assert clone.elements[0].params == {"t": SQ2}
            with pytest.raises(TypeError):
                clone.elements[0].params["t"] = 0.0

    @pytest.mark.parametrize("builder", [build_sorter, build_s2_setup, build_s3_setup,
                                         build_soba])
    def test_memoized_setups_are_read_only(self, builder):
        circuit = builder()
        assert builder() is circuit
        for elem in circuit.elements:
            with pytest.raises(TypeError):
                elem.params["t"] = 0.0
        assert circuit_to_dict(builder()) == circuit_to_dict(circuit)


def reference_element_matrix(elem, basis):
    """Column-by-column materialization over every basis mode (reference)."""
    u = np.zeros((basis.size, basis.size), dtype=complex)
    for j in range(basis.size):
        for key, factor, _ in _key_action(elem, basis.key_at(j), basis.truncation):
            u[basis.index(key), j] += factor
    return u


ONE_OF_EACH_KIND = (
    beam_splitter("p0", "p1", "p2", "p3", t=0.3),
    polarizing_bs("p2", "p3", "p4", "p5"),
    dove_prism("p4", 1.1),
    spiral_phase_plate("p5", 2),
    half_wave_plate("p0", 0.4),
    phase_delay("p1", 2.2),
    mirror("p3", "p5"),
    Element("oc_p", ("p1", "p4"), ("p1", "p4")),
    Element("pc_o", ("p2",), ("p2",)),
)


class TestDenseOracle:
    @pytest.mark.parametrize("truncation", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_row_blocks_equal_full_product(self, seed, truncation):
        rng = np.random.default_rng(300 + seed)
        circuits = [random_circuit(rng, int(rng.integers(1, 13))),
                    Circuit("kinds", ONE_OF_EACH_KIND, "p0", ()), build_soba()]
        for circuit in circuits:
            u, basis = circuit_unitary(circuit, truncation)
            product = np.eye(basis.size, dtype=complex)
            for elem in circuit.elements:
                product = element_matrix(elem, basis) @ product
            assert np.abs(u - product).max() < 1e-12

    @pytest.mark.parametrize("elem", ONE_OF_EACH_KIND, ids=lambda e: e.kind)
    def test_element_matrix_is_identity_off_its_paths(self, elem):
        basis = ModeBasis(pool_paths() + ("q",), 2)
        u = element_matrix(elem, basis)
        assert np.array_equal(u, reference_element_matrix(elem, basis))
        off = [i for i in range(basis.size) if basis.key_at(i).path not in elem.paths()]
        assert np.array_equal(u[:, off], np.eye(basis.size)[:, off])
        assert np.array_equal(u[off, :], np.eye(basis.size)[off, :])

    # The band rules, at odd and even K: the gates and the plates wrap m at
    # the band edge, and q = 2 at K = 1 shifts a band of 3 modes by 2.
    BAND_RULE_CASES = (*ONE_OF_EACH_KIND, *(spiral_phase_plate("p5", q) for q in (-2, -1, 1)))

    @pytest.mark.parametrize("truncation", [1, 2, 3, 4])
    @pytest.mark.parametrize("elem", BAND_RULE_CASES,
                             ids=lambda e: e.kind + str(e.params.get("q", "")))
    def test_band_rules_equal_the_per_mode_reference(self, elem, truncation):
        basis = ModeBasis(pool_paths() + ("q",), truncation)
        want = reference_element_matrix(elem, basis)
        assert np.array_equal(element_matrix(elem, basis), want)

    @pytest.mark.parametrize("truncation", [1, 2])
    @pytest.mark.parametrize("elem", BAND_RULE_CASES,
                             ids=lambda e: e.kind + str(e.params.get("q", "")))
    def test_rows_write_each_target_once_from_at_most_two_sources(self, elem, truncation):
        basis = ModeBasis(pool_paths(), truncation)
        (tgt, src, f), (tgt2, s1, _, s2, _) = elements._element_rows(elem, basis)
        targets = np.concatenate([tgt, tgt2])
        assert len(set(targets.tolist())) == len(targets) > 0
        assert not np.any((tgt == src) & (f == 1.0))  # no identity row
        assert np.all(s1 != s2)  # a two-source row has two distinct sources
        assert {basis.key_at(i).path for i in targets} <= set(elem.paths())

    def test_unknown_element_kind_raises(self):
        elem = Element("prism", ("p0",), ("p0",))
        basis = ModeBasis(("p0",), 1)
        with pytest.raises(ValueError):
            element_matrix(elem, basis)
        with pytest.raises(ValueError):
            circuit_unitary(Circuit("bad", (elem,), "p0", ()), 1)

    def test_unknown_element_kind_raises_for_modes_off_its_paths(self):
        elem = Element("prism", ("p0",), ("p1",))
        state = PhotonState({mode(0, H, "q"): 1.0}, 2)
        with pytest.raises(ValueError, match="unknown element kind"):
            apply_element(elem, state)


def every_kind_circuit(rng):
    """A random circuit with one element of every kind, gates included,
    shuffled in; it touches every pool path."""
    elems = list(random_circuit(rng, int(rng.integers(1, 9))).elements)
    for elem in ONE_OF_EACH_KIND:
        elems.insert(int(rng.integers(len(elems) + 1)), elem)
    return Circuit("kinds", tuple(elems), "p0", ())


class TestDenseRoutesAgree:
    """dense_apply steps the state's rows; the reference multiplies by the
    materialized circuit_unitary: u @ vec, u @ M, M @ u.T and u @ M @ u.T.
    The unitary itself must equal the product of the column-by-column
    reference matrices, which share no code with the row step."""

    CASES = [("kinds", seed, k) for seed in range(4) for k in (1, 2, 3)] + \
        [("soba", 0, k) for k in (1, 2, 3)]

    @staticmethod
    def circuit_of(name, seed):
        rng = np.random.default_rng(1200 + seed)
        return (every_kind_circuit(rng) if name == "kinds" else build_soba()), rng

    @staticmethod
    def unitary(circuit, truncation):
        u, basis = circuit_unitary(circuit, truncation)
        want = np.eye(basis.size, dtype=complex)
        for elem in circuit.elements:
            want = reference_element_matrix(elem, basis) @ want
        assert np.abs(u - want).max() <= 1e-12
        return u, basis

    @pytest.mark.parametrize("name,seed,truncation", CASES)
    def test_single_photon(self, name, seed, truncation):
        circuit, rng = self.circuit_of(name, seed)
        u, basis = self.unitary(circuit, truncation)
        state = random_full_state(rng, truncation, paths=circuit.paths())
        got = basis.to_vector(dense_apply(circuit, state))
        assert np.abs(got - u @ basis.to_vector(state)).max() <= 1e-12

    @pytest.mark.parametrize("name,seed,truncation", CASES)
    def test_pair(self, name, seed, truncation):
        circuit, rng = self.circuit_of(name, seed)
        u, basis = self.unitary(circuit, truncation)
        state = random_entangled_pair(rng, truncation, 64, circuit.paths()[:3])
        m = basis.to_matrix(state)
        for slot, want in ((1, u @ m), (2, m @ u.T), ("both", u @ m @ u.T)):
            got = basis.to_matrix(dense_apply(circuit, state, slot=slot))
            assert np.abs(got - want).max() <= 1e-12, slot

    def test_pair_slot_must_be_one_two_or_both(self):
        pair = random_entangled_pair(np.random.default_rng(1250), 1, paths=("in",))
        for slot in (0, 3, None):
            with pytest.raises(ValueError):
                dense_apply(build_sorter(), pair, slot=slot)

    def test_oracle_never_reads_the_action_cache(self):
        rng = np.random.default_rng(1260)
        circuit = every_kind_circuit(rng)
        single = random_full_state(rng, 2, paths=pool_paths())
        pair = random_entangled_pair(rng, 2)
        before = elements._table.cache_info()
        dense_apply(circuit, single)
        dense_apply(circuit, pair)
        circuit_unitary(circuit, 2)
        element_matrix(circuit.elements[0], ModeBasis(pool_paths(), 2))
        assert elements._table.cache_info() == before


class TestBandInvariant:
    """No element writes a key outside the band, so _evolve checks the band
    only on its output."""

    @pytest.mark.parametrize("truncation", [1, 2, 3])
    def test_every_target_of_every_in_band_mode_is_in_band(self, truncation):
        k = truncation
        plates = [spiral_phase_plate("p0", q)
                  for q in (1, -1, 2, -2, 2 * k + 1, -(2 * k + 1), 10 ** 6)]
        targets = 0
        for elem in (*ONE_OF_EACH_KIND, *plates):
            basis = ModeBasis(elem.paths(), k)
            for i in range(basis.size):
                for key, _, _ in _key_action(elem, basis.key_at(i), k):
                    assert abs(key.m) <= k, (elem, basis.key_at(i), key)
                    targets += 1
        assert targets >= sum(ModeBasis(e.paths(), k).size for e in ONE_OF_EACH_KIND)


_KINDS = ("bs", "pbs", "dove", "spp", "hwp", "phase", "mirror", "oc_p", "pc_o")
_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]),
                    st.floats(-1e3, 1e3))


@st.composite
def _elements(draw):
    kind = draw(st.sampled_from(_KINDS))
    paths = tuple(draw(st.permutations(pool_paths())))
    if kind == "bs":
        t = draw(st.one_of(st.sampled_from([0.0, 1.0, SQ2]), st.floats(0.0, 1.0)))
        return beam_splitter(*paths[:4], t=t)
    if kind == "pbs":
        return polarizing_bs(*paths[:4])
    if kind == "mirror":
        return mirror(*paths[:2])
    if kind in ("oc_p", "pc_o"):
        gate_paths = paths[:draw(st.integers(1, 2))]
        return Element(kind, gate_paths, gate_paths)
    if kind == "spp":
        q = draw(st.one_of(st.sampled_from([0, 10 ** 6, -10 ** 6]), st.integers(-7, 7)))
        return spiral_phase_plate(paths[0], q)
    factory = {"dove": dove_prism, "hwp": half_wave_plate, "phase": phase_delay}[kind]
    return factory(paths[0], draw(_ANGLES))


def random_entangled_pair(rng, truncation, n_terms=16, paths=pool_paths()[:3]):
    """Random pair over `paths`; generally not a product state."""
    keys = [mode(m, pol, p) for p in paths for pol in (H, V)
            for m in range(-truncation, truncation + 1)]
    amps = {}
    for a, b in rng.integers(len(keys), size=(n_terms, 2)):
        amps[(keys[a], keys[b])] = complex(*rng.normal(size=2))
    return TwoPhotonState(amps, truncation).normalized()


class TestRandomCircuitProperty:
    """Random circuits of every kind, edge parameters included, preserve the
    norm, and the sparse evolution equals the dense oracle."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(elems=st.lists(_elements(), min_size=1, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1), truncation=st.integers(1, 3),
           slot=st.sampled_from([None, 1, 2, "both"]))
    def test_norm_preserved_and_dense_agrees(self, elems, seed, truncation, slot):
        rng = np.random.default_rng(seed)
        circuit = Circuit("random", tuple(elems), "p0", ())
        if slot is None:
            state = random_full_state(rng, truncation, paths=pool_paths()[:3])
            sparse = apply_circuit(circuit, state, wrap_guard=None)
            dense = dense_apply(circuit, state)
        else:
            state = random_entangled_pair(rng, truncation)
            sparse = apply_circuit(circuit, state, slot=slot, wrap_guard=None)
            dense = dense_apply(circuit, state, slot=slot)
        assert abs(sparse.norm() - state.norm()) <= 1e-12
        basis = ModeBasis(circuit.paths() + state.paths(), truncation)
        convert = basis.to_vector if slot is None else basis.to_matrix
        assert np.abs(convert(sparse) - convert(dense)).max() <= 1e-10
