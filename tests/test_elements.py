import builtins
import cmath
import copy
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oamsim import bell, elements, hilbert, tomography
from oamsim.elements import (
    ACTION_CACHE_SIZE,
    ROWS_CACHE_SIZE,
    WRAP_GUARD,
    Circuit,
    Element,
    WrapGuardError,
    _action_table,
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
    joint_readouts,
    mirror,
    oc_p_gate,
    pc_o_gate,
    phase_delay,
    polarizing_bs,
    readout,
    readouts,
    spiral_phase_plate,
)
from oamsim.hilbert import (
    BASIS_CACHE_SIZE,
    DENSE_DIM_LIMIT,
    H,
    V,
    ModeBasis,
    PhotonState,
    SpectrumModel,
    TruncationError,
    TwoPhotonState,
    mode,
)
from oamsim.soba import build_soba
from oamsim.sources import PRODUCT_HH, SourceSpec, canonical_pair_spectrum, hyper_source, spdc
from helpers import (
    AT_PRUNE_EPS,
    EDGE_VALUES,
    compensated_sum,
    pool_paths,
    random_circuit,
    random_full_state,
    random_oam_state,
    random_two_photon,
    reference_joint_readout,
    reference_readout,
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
        plate = Circuit("plate", (spiral_phase_plate("in", +1),), "in", ())
        out = apply_circuit(plate, s, wrap_guard=None)
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
        with pytest.raises(ValueError, match="input and output paths must be distinct"):
            beam_splitter("a", "b", "a", "d")
        with pytest.raises(ValueError, match="input and output paths must be distinct"):
            polarizing_bs("a", "b", "b", "c")
        with pytest.raises(ValueError, match="port paths must be pairwise distinct"):
            beam_splitter("a", "a", "c", "d")
        with pytest.raises(ValueError, match="transmission amplitude"):
            beam_splitter("a", "b", "c", "d", t=1.2)
        with pytest.raises(ValueError, match="mirror must relabel the path"):
            mirror("a", "a")

    # Layouts the constructors cannot make, built as a bare Element: ports
    # that overlap, arities other than the kind's, and in-place kinds whose
    # output paths differ from their input paths.
    INCOHERENT_PORTS = [
        ("bs", ("a", "b"), ("b", "c"), {"t": SQ2}),
        ("bs", ("a", "b", "e"), ("c", "d", "f"), {"t": SQ2}),
        ("bs", ("a",), ("c",), {"t": SQ2}),
        ("pbs", ("a", "b"), ("c", "a"), {}),
        ("pbs", ("a", "a"), ("c", "d"), {}),
        ("mirror", ("a",), ("a",), {}),
        ("mirror", ("a", "b"), ("c", "d"), {}),
        ("dove", ("a",), ("b",), {"alpha": 1.0}),
        ("hwp", ("a", "b"), ("b", "a"), {"theta": 0.3}),
        ("oc_p", ("a", "a"), ("a", "a"), {}),
        ("pc_o", ("a",), (), {}),
        # a bare string, whose letters would read as paths "a" and "b"
        ("dove", "ab", "ab", {"alpha": 1.0}),
        ("mirror", ("a",), "b", {}),
        # labels that are no strings
        ("mirror", ("a",), (1,), {}),
        ("oc_p", (None,), (None,), {}),
    ]

    @pytest.mark.parametrize("kind,ins,outs,params", INCOHERENT_PORTS)
    def test_incoherent_port_layouts_rejected_when_built(self, kind, ins, outs, params):
        with pytest.raises(ValueError):
            Element(kind, ins, outs, params)

    def test_port_labels_must_come_as_a_sequence_of_strings(self):
        with pytest.raises(ValueError, match="got the string 'ab'"):
            Element("dove", "ab", "ab", {"alpha": 1.0})
        with pytest.raises(ValueError, match="path labels must be strings"):
            Element("pbs", ("a", "b"), ("c", 4))

    @pytest.mark.parametrize("listed,built", [
        (Element("dove", ["p0"], ["p0"], {"alpha": 1.0}), dove_prism("p0", 1.0)),
        (Element("bs", ["p0", "p1"], ["p2", "p3"], {"t": 0.3}),
         beam_splitter("p0", "p1", "p2", "p3", t=0.3)),
        (Element("oc_p", ["p1", "p4"], ["p1", "p4"]),
         Element("oc_p", ("p1", "p4"), ("p1", "p4"))),
    ], ids=lambda e: e.kind)
    def test_list_ports_act_as_tuple_ports(self, listed, built):
        assert listed.in_paths == built.in_paths and type(listed.in_paths) is tuple
        assert listed.out_paths == built.out_paths and type(listed.out_paths) is tuple
        assert listed == built and hash(listed) == hash(built)
        rng = np.random.default_rng(140)
        single = random_full_state(rng, 2, paths=pool_paths())
        pair = random_pool_pair(rng, 2)
        one, other = (Circuit("one", (elem,), "p0", ()) for elem in (listed, built))
        for state in (single, pair):
            assert_bit_identical(apply_circuit(one, state, wrap_guard=None),
                                 apply_circuit(other, state, wrap_guard=None))
            assert_bit_identical(dense_apply(one, state), dense_apply(other, state))
        u, basis = circuit_unitary(one, 2)
        assert np.array_equal(u, circuit_unitary(other, 2)[0])
        assert basis is circuit_unitary(other, 2)[1]

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_wave_plate_angle_rejected(self, theta):
        with pytest.raises(ValueError):
            half_wave_plate("in", theta)

    @pytest.mark.parametrize("outs", [("p0",), ("p1",)], ids=["in_place", "relabelled"])
    def test_unknown_element_kind_raises_when_built(self, outs):
        with pytest.raises(ValueError, match="unknown element kind 'prism'"):
            Element("prism", ("p0",), outs)

    # Parameters no factory passes, built as a bare Element.
    BAD_PARAMS = [
        ("bs", {"t": 2.0}, "transmission amplitude"),
        ("bs", {}, r"bs takes the parameters \('t',\), got \(\)"),
        ("dove", {"alpha": 1.0, "beta": 2.0}, r"got \('alpha', 'beta'\)"),
        ("pbs", {"t": 0.5}, "pbs takes the parameters"),
        ("dove", {"alpha": math.nan}, "angle alpha out of range"),
        ("phase", {"phi": math.inf}, "angle phi out of range"),
        ("hwp", {"theta": math.nan}, "angle theta out of range"),
        ("spp", {"q": 0.5}, "order must be an integer"),
        ("spp", {"q": math.inf}, "order must be an integer"),
    ]

    @pytest.mark.parametrize("kind,params,message", BAD_PARAMS, ids=[
        "t_above_one", "t_missing", "extra_beta", "pbs_with_t",
        "alpha_nan", "phi_inf", "theta_nan", "q_half", "q_inf"])
    def test_bad_parameters_rejected_when_built(self, kind, params, message):
        ins, outs = (("a", "b"), ("c", "d")) if kind in ("bs", "pbs") else (("a",), ("a",))
        with pytest.raises(ValueError, match=message):
            Element(kind, ins, outs, params)

    @pytest.mark.parametrize("factory,name,good,bad", [
        (lambda path, t: beam_splitter(path, "b", "c", "d", t=t), "t",
         [0, 1, SQ2, "0.5", np.float32(0.25)], [1.2, -0.1, math.nan, "x"]),
        (spiral_phase_plate, "q", [1, 1.0, "-3", np.int64(5), 10 ** 30],
         [1.5, "1.5", math.inf, -math.inf, True]),
        (half_wave_plate, "theta", [8e307, -8e307, "0.25", 1], [9e307, -9e307, "nan"]),
        (dove_prism, "alpha", [1e308, np.float32(2.0), 3], [math.inf, "abc"]),
        (phase_delay, "phi", [-1e308, 0], [-math.inf, math.nan]),
    ], ids=["bs", "spp", "hwp", "dove", "phase"])
    def test_a_bare_element_builds_what_its_factory_builds(self, factory, name, good, bad):
        """Each factory's conversion (int for q, float otherwise) and range
        are the element's own, so the same argument builds the same element,
        _ident included, either way."""
        convert = int if name == "q" else float
        for value in good:
            elem = factory("p", value)
            bare = Element(elem.kind, elem.in_paths, elem.out_paths, {name: value})
            assert elem == bare and elem._ident == bare._ident
            assert type(elem.params[name]) is convert and elem.params[name] == convert(value)
        for value in bad:
            with pytest.raises(ValueError):
                factory("p", value)


class TestGates:
    def test_oc_p_branches(self):
        out = oc_p_gate(PhotonState({mode(1, H): 1.0}, 4))
        (key, amp), = out.amplitudes.items()
        assert key.pol == V and key.m % 2 == 0 and amp == pytest.approx(1.0)

        out = oc_p_gate(PhotonState({mode(0, H): 1.0}, 4))
        assert out.get(mode(0, H)) == pytest.approx(1.0)

        out = oc_p_gate(PhotonState({mode(0, V): 1.0}, 4))
        (key, amp), = out.amplitudes.items()
        assert key.pol == V and key.m % 2 == 1

        out = oc_p_gate(PhotonState({mode(1, V): 1.0}, 4))
        assert out.get(mode(1, H)) == pytest.approx(1.0)

    def test_oc_p_parity_level_permutation_is_unitary(self):
        # coarse-grain the action onto the (parity, polarization) square
        labels = [("even", H), ("odd", H), ("even", V), ("odd", V)]
        reps = {("even", H): mode(0, H), ("odd", H): mode(1, H),
                ("even", V): mode(0, V), ("odd", V): mode(1, V)}
        u = np.zeros((4, 4), dtype=complex)
        for col, lab in enumerate(labels):
            out = oc_p_gate(PhotonState({reps[lab]: 1.0}, 4))
            for key, amp in out.amplitudes.items():
                row = labels.index(("even" if key.m % 2 == 0 else "odd", key.pol))
                u[row, col] += amp
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_pc_o_branches(self):
        out = pc_o_gate(PhotonState({mode(0, V): 1.0}, 4))
        assert out.get(mode(1, V)) == pytest.approx(1.0)
        out = pc_o_gate(PhotonState({mode(0, H): 1.0}, 4))
        assert out.get(mode(0, H)) == pytest.approx(1.0)

    def test_pc_o_twice_restores_parity(self):
        s = PhotonState({mode(0, V): SQ2, mode(1, H): SQ2}, 6)
        out = pc_o_gate(pc_o_gate(s))
        for key, amp in out.amplitudes.items():
            if key.pol == V:
                assert key.m % 2 == 0  # started even, flipped twice
        assert abs(out.norm() - 1.0) < 1e-12

    def test_wrap_guard_at_band_edge(self):
        with pytest.raises(WrapGuardError):
            pc_o_gate(PhotonState({mode(4, V): 1.0}, 4))
        with pytest.raises(WrapGuardError):
            oc_p_gate(PhotonState({mode(1, H): 1.0}, 1))


def gate_circuit() -> Circuit:
    """Two paths, both gates, and ordinary elements around them."""
    return Circuit("gates", (
        beam_splitter("in", "vac", "a", "b", t=0.6),
        Element("oc_p", ("a", "b"), ("a", "b")),
        spiral_phase_plate("a", -1),
        half_wave_plate("b", 0.3),
        Element("pc_o", ("a",), ("a",)),
        Element("oc_p", ("b",), ("b",)),
        beam_splitter("a", "b", "c", "d"),
    ), "in", ())


class TestGatesUnderTheDenseOracle:
    @pytest.mark.parametrize("truncation", [1, 2, 3])
    def test_gate_circuit_is_unitary(self, truncation):
        u, _ = circuit_unitary(gate_circuit(), truncation)
        assert np.abs(u.conj().T @ u - np.eye(len(u))).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_equals_dense_single_photon(self, seed):
        rng = np.random.default_rng(900 + seed)
        s = random_full_state(rng, 3, paths=("in", "vac"))
        sparse = apply_circuit(gate_circuit(), s, wrap_guard=None)
        dense = dense_apply(gate_circuit(), s)
        for key in set(sparse.amplitudes) | set(dense.amplitudes):
            assert abs(sparse.get(key) - dense.get(key)) < 1e-10

    @pytest.mark.parametrize("slot", [1, 2, "both"])
    def test_sparse_equals_dense_pair(self, slot):
        s = random_two_photon(np.random.default_rng(950), 3, n_terms=12)
        sparse = apply_circuit(gate_circuit(), s, slot=slot, wrap_guard=None)
        dense = dense_apply(gate_circuit(), s, slot=slot)
        for key in set(sparse.amplitudes) | set(dense.amplitudes):
            assert abs(sparse.get(key) - dense.get(key)) < 1e-10

    @pytest.mark.parametrize("gate,edge", [(pc_o_gate, mode(4, V)),
                                           (oc_p_gate, mode(4, V))])
    def test_one_guard_sum_over_every_path(self, gate, edge):
        # 0.6 * WRAP_GUARD wraps on each of two paths: neither share alone
        # trips the guard, their sum does.
        share = math.sqrt(0.6 * WRAP_GUARD)
        rest = math.sqrt(1.0 - 2.0 * share ** 2)
        one = PhotonState({edge: share, mode(0, H): rest}, 4)
        gate(one)
        two = PhotonState({edge: share, edge._replace(path="aux"): share,
                           mode(0, H): rest}, 4)
        with pytest.raises(WrapGuardError):
            gate(two)
        pair = TwoPhotonState({(edge, mode(0)): share,
                               (edge._replace(path="aux"), mode(0)): share,
                               (mode(0), mode(0)): rest}, 4)
        with pytest.raises(WrapGuardError):
            gate(pair, slot=1)
        gate(pair, slot=2)

    @pytest.mark.parametrize("gate", [oc_p_gate, pc_o_gate])
    def test_pair_slot_must_be_one_or_two(self, gate):
        pair = hyper_source(canonical_pair_spectrum(), 4)
        for slot in ("both", 0, 3):
            with pytest.raises(ValueError):
                gate(pair, slot=slot)


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


def fresh_projection_elements(theta, variant):
    """build_projection's elements, each from a fresh factory call."""
    theta = theta % math.pi
    front = [beam_splitter("in", "s_vac", "s_arm_t", "s_arm_r"),
             dove_prism("s_arm_r", math.pi),
             beam_splitter("s_arm_t", "s_arm_r", "odd_port", "even_port"),
             spiral_phase_plate("even_port", 1)]
    if variant == "polarization":
        return front + [half_wave_plate("even_port", math.pi / 4.0),
                        polarizing_bs("odd_port", "even_port", "merged", "discard"),
                        half_wave_plate("merged", theta / 2.0),
                        polarizing_bs("merged", "aux", "p_theta_perp", "p_theta")]
    if math.cos(theta) >= 0.0:
        return front + [beam_splitter("odd_port", "even_port", "p_theta_perp", "p_theta",
                                      t=math.cos(theta))]
    return front + [beam_splitter("odd_port", "even_port", "p_theta", "p_theta_perp",
                                  t=math.cos(theta - math.pi / 2.0))]


class TestCircuits:
    def test_identity_circuit_preserves_state(self):
        rng = np.random.default_rng(7)
        s = random_full_state(rng, 3)
        circuit = Circuit("identity", (), "in", ())
        out = apply_circuit(circuit, s)
        assert out.amplitudes == s.amplitudes
        assert out.amplitudes is not s.amplitudes  # states never share a map
        dense = dense_apply(circuit, s)
        for key, amp in s.amplitudes.items():
            assert dense.get(key) == pytest.approx(amp, abs=1e-15)

    def test_detector_paths_validated(self):
        with pytest.raises(ValueError):
            Circuit("bad", (), "in", ("nowhere",))

    def test_repeated_detector_paths_rejected(self):
        # A repeated detector would read as one entry of the readout.
        with pytest.raises(ValueError, match="detector paths must be distinct"):
            Circuit("x", (mirror("in", "a"),), "in", ("a", "a"))

    def test_a_bare_string_of_detector_paths_is_rejected(self):
        # Its letters would read as the one-letter detectors "a" and "c".
        with pytest.raises(ValueError, match="got the string 'ac'"):
            Circuit("x", (mirror("in", "a"), mirror("b", "c")), "in", "ac")

    def test_lists_are_stored_as_tuples(self):
        circuit = Circuit("x", [mirror("in", "a")], "in", ["a"])
        want = Circuit("x", (mirror("in", "a"),), "in", ("a",))
        assert circuit == want and hash(circuit) == hash(want)
        assert type(circuit.elements) is tuple and type(circuit.detector_paths) is tuple

    def test_paths_are_built_once_in_first_use_order(self):
        circuit = build_soba()
        assert circuit.paths() is circuit.paths()
        seen = {circuit.input_path: None}
        for elem in circuit.elements:
            seen.update(dict.fromkeys(elem.paths()))
        assert circuit.paths() == tuple(seen)

    @pytest.mark.parametrize("builder", [build_sorter, build_s2_setup, build_s3_setup,
                                         lambda: build_projection(0.6),
                                         lambda: build_projection(0.6, "polarization")])
    def test_builtin_circuits_unitary(self, builder):
        u, basis = circuit_unitary(builder(), 3)
        assert np.abs(u.conj().T @ u - np.eye(basis.size)).max() < 1e-10

    @pytest.mark.parametrize("variant", ["tunable_bs", "polarization"])
    def test_projections_share_every_element_but_the_theta_one(self, variant):
        circuits = [build_projection(theta, variant) for theta in (0.6, 2.2)]
        theta_at = 4 if variant == "tunable_bs" else 6
        for circuit, theta in zip(circuits, (0.6, 2.2)):
            assert [e._ident for e in circuit.elements] == \
                [e._ident for e in fresh_projection_elements(theta, variant)]
        for i, (one, other) in enumerate(zip(*(c.elements for c in circuits))):
            assert (one is other) is (i != theta_at)
        for setup in (build_s2_setup(), build_s3_setup()):
            assert all(a is b for a, b in zip(setup.elements[:4], circuits[0].elements))

    @pytest.mark.parametrize("builder", [build_s2_setup, build_s3_setup,
                                         lambda: build_projection(0.6),
                                         lambda: build_projection(2.2),
                                         lambda: build_projection(0.6, "polarization")])
    def test_analyzers_start_with_the_sorters_own_elements(self, builder):
        sorter = build_sorter().elements
        assert len(sorter) == 3
        assert all(a is b for a, b in zip(builder().elements, sorter))

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


def random_pool_pair(rng, truncation, margin=0):
    """Product of two random single-photon states over three pool paths,
    each with |m| <= K - margin."""
    a = random_full_state(rng, truncation, paths=pool_paths()[:3], margin=margin)
    b = random_full_state(rng, truncation, paths=pool_paths()[:3], margin=margin)
    return TwoPhotonState({(k1, k2): x * y for k1, x in a.amplitudes.items()
                           for k2, y in b.amplitudes.items()}, truncation)


def readout_guard(read, apply) -> bool:
    """Check that a readout guards the band edge as apply_circuit does by
    default: `read()` raises the WrapGuardError that `apply()` raises, and
    passes where it passes.  Returns whether the guard fired."""
    try:
        apply()
    except WrapGuardError as err:
        with pytest.raises(WrapGuardError, match=f"^{re.escape(str(err))}$"):
            read()
        return True
    read()
    return False


def plate_order(circuit) -> int:
    """The most the circuit's spiral plates can shift one mode's m."""
    return sum(abs(e.params["q"]) for e in circuit.elements if e.kind == "spp")


class TestReadout:
    """readout/joint_readout give exactly the per-port detect/coincidence_detect
    values on states clear of the band edge (|m| <= K - 1, each built-in
    setup shifting m by at most 1), and always guard that edge: every setup
    but the plate-free sorter raises on a state that fills the band."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SETUPS))
    @pytest.mark.parametrize("seed", range(3))
    def test_builtin_single_photon(self, name, seed):
        rng = np.random.default_rng(300 + seed)
        circuit = BUILTIN_SETUPS[name]()
        full = random_full_state(rng, 4)
        state = random_full_state(rng, 4, margin=1)
        probs = readout(circuit, state)
        out = apply_circuit(circuit, state)
        assert tuple(probs) == circuit.detector_paths
        assert probs == {p: detect(out, p) for p in circuit.detector_paths}
        assert readout_guard(lambda: readout(circuit, full),
                             lambda: apply_circuit(circuit, full)) is (name != "sorter")

    @pytest.mark.parametrize("name", sorted(BUILTIN_SETUPS))
    def test_builtin_pair(self, name):
        rng = np.random.default_rng(310)
        circuit = BUILTIN_SETUPS[name]()
        full = random_two_photon(rng, 4, n_terms=10)
        pair = random_two_photon(rng, 4, n_terms=10, margin=1)
        probs = joint_readout(circuit, circuit, pair)
        out = apply_circuit(circuit, pair, slot=1)
        out = apply_circuit(circuit, out, slot=2)
        dets = circuit.detector_paths
        assert list(probs) == [(a, b) for a in dets for b in dets]
        assert probs == {(a, b): coincidence_detect(out, a, b) for a, b in probs}
        assert readout_guard(
            lambda: joint_readout(circuit, circuit, full),
            lambda: apply_circuit(circuit, apply_circuit(circuit, full, slot=1), slot=2),
        ) is (name != "sorter")

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
        full = random_full_state(rng, 2, paths=pool_paths()[:2])
        readout_guard(lambda: readout(c1, full), lambda: apply_circuit(c1, full))
        full = random_pool_pair(rng, 2)
        readout_guard(lambda: joint_readout(c1, c2, full),
                      lambda: apply_circuit(c2, apply_circuit(c1, full, slot=1), slot=2))
        # |m| <= 1 at a K past the most either circuit's plates add to it
        k = 1 + max(1, plate_order(c1), plate_order(c2))
        single = random_full_state(rng, k, paths=pool_paths()[:2], margin=k - 1)
        out = apply_circuit(c1, single)
        assert readout(c1, single) == {p: detect(out, p) for p in c1.detector_paths}
        pair = random_pool_pair(rng, k, margin=k - 1)
        out = apply_circuit(c1, pair, slot=1)
        out = apply_circuit(c2, out, slot=2)
        probs = joint_readout(c1, c2, pair)
        assert probs == {(a, b): coincidence_detect(out, a, b) for a, b in probs}
        assert sum(probs.values()) <= 1.0 + 1e-12
        # the built-in setups too, with a detector and amplitude on every path
        for name in sorted(BUILTIN_SETUPS):
            circuit = with_all_detectors(BUILTIN_SETUPS[name]())
            full = random_full_state(rng, 2, paths=circuit.paths())
            assert readout_guard(lambda: readout(circuit, full),
                                 lambda: apply_circuit(circuit, full)) is (name != "sorter")
            single = random_full_state(rng, 2, paths=circuit.paths(), margin=1)
            out = apply_circuit(circuit, single)
            assert readout(circuit, single) == {p: detect(out, p) for p in circuit.detector_paths}

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
        pair = TwoPhotonState({(mode(0), mode(2)): 1.0}, 2)
        with pytest.raises(WrapGuardError):
            joint_readout(build_sorter(), build_s2_setup(), pair)


SPECTRA = {"uniform": SpectrumModel.uniform(), "gaussian:2": SpectrumModel.gaussian(2.0),
           "complex": SpectrumModel.explicit({0: 0.6, 1: 0.3 + 0.4j})}


def settings_grid(rng, variant):
    """A CHSH grid of four (Alice, Bob) projection pairs at random angles,
    listed as chsh lists them, then the key exchange's nine."""
    t, t2, c, c2 = rng.uniform(0.0, math.pi, size=4)
    chsh_grid = ((t, c), (t, c2), (t2, c), (t2, c2))
    key_grid = [(a, b) for a in bell.ALICE_KEY_ANGLES for b in bell.BOB_KEY_ANGLES]
    return [[(build_projection(a, variant), build_projection(bell._bob_angle(b), variant))
             for a, b in grid] for grid in (chsh_grid, key_grid)]


class TestSharedPrefix:
    """readouts/joint_readouts equal one reference readout per circuit, bit
    for bit, and raise the error the per-circuit order raises first."""

    @pytest.mark.parametrize("variant", ["tunable_bs", "polarization"])
    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_pairs_equal_the_per_pair_readouts(self, variant, spectrum, k):
        rng = np.random.default_rng([500, k, len(spectrum), len(variant)])
        pair = spdc(SourceSpec(1, SPECTRA[spectrum], PRODUCT_HH, k))
        for pairs in settings_grid(rng, variant):
            want = [reference_joint_readout(c1, c2, pair) for c1, c2 in pairs]
            assert repr(list(joint_readouts(pairs, pair))) == repr(want)

    @pytest.mark.parametrize("variant", ["tunable_bs", "polarization"])
    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_chsh_tables_equal_the_per_pair_readouts(self, variant, k):
        rng = np.random.default_rng([510, k, len(variant)])
        for spectrum in SPECTRA.values():
            pair = spdc(SourceSpec(1, spectrum, PRODUCT_HH, k))
            t, t2, c, c2 = (float(x) for x in rng.uniform(0.0, math.pi, size=4))
            tables = bell.chsh(pair, t, t2, c, c2, variant=variant).tables
            for tab, (a, b) in zip(tables, ((t, c), (t, c2), (t2, c), (t2, c2))):
                want = reference_joint_readout(build_projection(a, variant),
                                               build_projection(bell._bob_angle(b), variant),
                                               pair)
                assert repr((tab.d13, tab.d14, tab.d23, tab.d24)) == repr(tuple(want.values()))

    @pytest.mark.parametrize("k", [1, 8, 64])
    def test_one_photon_equals_the_per_circuit_readouts(self, k):
        rng = np.random.default_rng([520, k])
        state = random_oam_state(rng, k, modes=range(-k + 1, k - 1) if k > 1 else (0,))
        angles = rng.uniform(0.0, math.pi, size=2)
        circuits = [build_sorter(), build_s2_setup(), build_s3_setup(),
                    *(build_projection(a, v) for a in angles
                      for v in ("tunable_bs", "polarization"))]
        want = [reference_readout(c, state) for c in circuits]
        assert repr(list(readouts(circuits, state))) == repr(want)

    @pytest.mark.parametrize("seed", range(4))
    def test_tomography_equals_one_readout_per_setup(self, seed):
        rng = np.random.default_rng(530 + seed)
        state = random_oam_state(rng, 8, modes=range(-6, 6))
        want = {name: reference_readout(build(), state)
                for name, build in tomography.SETUPS.items()}
        assert repr(tomography.intensities(state)) == repr(want)

    def test_wrap_guard_raises_as_the_per_circuit_order(self):
        # m = 2 at K = 2: the sorter passes it, the analyzers' +1 plate wraps it.
        state = PhotonState({mode(2): 0.6, mode(-1): 0.8}, 2)
        circuits = [build_sorter(), build_s2_setup(), build_s3_setup()]
        with pytest.raises(WrapGuardError) as want:
            [reference_readout(c, state) for c in circuits]
        with pytest.raises(WrapGuardError, match=f"^{want.value}$"):
            list(readouts(circuits, state))
        pair = TwoPhotonState({(mode(0), mode(2)): 0.6, (mode(1), mode(-2)): 0.8}, 2)
        pairs = [(build_projection(a), build_projection(b))
                 for a in (0.1, 0.2) for b in (0.3, 0.4)]
        with pytest.raises(WrapGuardError) as want:
            [reference_joint_readout(c1, c2, pair) for c1, c2 in pairs]
        with pytest.raises(WrapGuardError, match=f"^{want.value}$"):
            list(joint_readouts(pairs, pair))

    def test_the_first_error_is_the_listed_order_s_not_the_tree_s(self):
        """A circuit listed between two that share a prefix runs before the
        second of them, so its error, not the second's, is raised."""
        state = PhotonState({mode(2): 0.6, mode(-2): 0.8}, 2)
        shared = mirror("in", "a")
        first = Circuit("first", (shared, mirror("a", "b")), "in", ("b",))
        between = Circuit("between", (spiral_phase_plate("in", -1),), "in", ("in",))
        second = Circuit("second", (shared, spiral_phase_plate("a", +1)), "in", ("a",))
        with pytest.raises(WrapGuardError, match="6.400e-01"):
            list(readouts([first, between, second], state))
        with pytest.raises(WrapGuardError, match="3.600e-01"):
            list(readouts([first, second, between], state))

    def test_each_shared_pass_runs_once(self, monkeypatch):
        passes = []
        apply_pass = elements._apply_pass
        monkeypatch.setattr(elements, "_apply_pass",
                            lambda *args: passes.append(args[0]) or apply_pass(*args))
        pair = spdc(SourceSpec(1, SpectrumModel.uniform(), PRODUCT_HH, 8))
        for variant, want in (("tunable_bs", 18), ("polarization", 30)):
            passes.clear()
            bell.chsh(pair, 0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8, variant=variant)
            assert len(passes) == want  # 40 and 64 one pair at a time
        passes.clear()
        bell.ekert_run(pair, 1000, 1)
        assert len(passes) == 28  # 90 one pair at a time
        passes.clear()
        tomography.intensities(PhotonState({mode(0): SQ2, mode(1): SQ2}, 8))
        assert len(passes) == 7  # 14 one setup at a time

    def test_a_state_of_the_wrong_photon_count_is_rejected(self):
        single = PhotonState({mode(0): 1.0}, 2)
        pair = TwoPhotonState({(mode(0), mode(1)): 1.0}, 2)
        with pytest.raises(TypeError, match="TwoPhotonState"):
            readouts([build_sorter()], pair)
        with pytest.raises(TypeError, match="PhotonState"):
            joint_readouts([(build_sorter(), build_sorter())], single)
        assert list(readouts([], single)) == []
        assert readout(Circuit("none", (), "in", ("in",)), single) == {"in": 1.0}


class TestDetectors:
    """detect and readout share one per-path loop, coincidence_detect and
    joint_readout one per-path-pair loop."""

    def test_readout_equals_detect_under_a_compensated_sum(self, monkeypatch):
        # Python 3.12 and later compensate builtin sum over floats.
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        rng = np.random.default_rng(330)
        for name in sorted(BUILTIN_SETUPS):
            circuit = BUILTIN_SETUPS[name]()
            full = random_full_state(rng, 4)
            assert readout_guard(lambda: readout(circuit, full),
                                 lambda: apply_circuit(circuit, full)) is (name != "sorter")
            single = random_full_state(rng, 4, margin=1)
            out = apply_circuit(circuit, single)
            assert readout(circuit, single) == {p: detect(out, p) for p in circuit.detector_paths}
            pair = random_two_photon(rng, 4, n_terms=10, margin=1)
            probs = joint_readout(circuit, circuit, pair)
            out = apply_circuit(circuit, pair, slot=1)
            out = apply_circuit(circuit, out, slot=2)
            assert probs == {(a, b): coincidence_detect(out, a, b) for a, b in probs}

    @pytest.mark.parametrize("label", [5, ["in"], None, ("in",), b"in"])
    def test_a_non_string_label_is_rejected_by_both_detectors(self, label):
        state = PhotonState({mode(0): 1.0}, 2)
        pair = TwoPhotonState({(mode(0), mode(1)): 1.0}, 2)
        with pytest.raises(TypeError, match="string"):
            detect(state, label)
        with pytest.raises(TypeError, match="string"):
            coincidence_detect(pair, label, "in")
        with pytest.raises(TypeError, match="string"):
            coincidence_detect(pair, "in", label)
        assert coincidence_detect(pair, "in", "in") == 1.0
        assert coincidence_detect(pair, "in", "dark") == 0.0


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

    @pytest.mark.parametrize("name", sorted(BUILTIN_SETUPS))
    @pytest.mark.parametrize("slot", [1, 2, "both"])
    def test_builtin_pair_at_the_prune_boundary(self, name, slot):
        """The finite EDGE_VALUES planted on both photons: on path "q", which
        no element reads, against every photon-2 mode on "in", the other way
        round, and on "in" against "in"; the NaN on "q" against one mode on
        "in" for each photon.  The pass-through terms land on PRUNE_EPS
        exactly, and the mixed ones on sums of edge values."""
        truncation = 2
        rng = np.random.default_rng(440)
        amps = dict(random_two_photon(rng, truncation, n_terms=10).amplitudes)
        in_keys, q_keys = ([mode(m, pol, path) for pol in (H, V)
                            for m in range(-truncation, truncation + 1)] for path in ("in", "q"))
        finite = [value for value in EDGE_VALUES if not cmath.isnan(value)]
        for j, value in enumerate(finite):
            for key in in_keys:
                amps[(q_keys[j], key)] = amps[(key, q_keys[j])] = value
            amps[(in_keys[j], in_keys[-1 - j])] = value
        nan_key = mode(0, H, "q")
        amps[(nan_key, in_keys[0])] = amps[(in_keys[1], nan_key)] = complex(math.nan, 0.0)
        pair = TwoPhotonState(amps, truncation)
        assert AT_PRUNE_EPS in pair.amplitudes.values()
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
        assert plus._ident != minus._ident
        assert _action_table(plus, 2) is not _action_table(minus, 2)
        assert repr(_action_table(plus, 2)[mode(0, H)][1][1]) == "0.0"
        assert repr(_action_table(minus, 2)[mode(0, H)][1][1]) == "-0.0"
        # the dense rows too: the hwp's second factor on its H row is sin(2 theta)
        basis = ModeBasis(("in",), 2)
        rows_plus = elements._circuit_rows((plus,), basis)
        rows_minus = elements._circuit_rows((minus,), basis)
        assert rows_plus is not rows_minus
        assert repr(float(rows_plus[0][1][4][0].real)) == "0.0"
        assert repr(float(rows_minus[0][1][4][0].real)) == "-0.0"
        circuits = [Circuit("hwp", (elem,), "in", ()) for elem in (plus, minus)]
        cold = []
        for circuit in circuits:
            clear_dense_caches()
            cold.append((dense_apply(circuit, state), circuit_unitary(circuit, 2)[0]))
        for circuit, (state_out, u) in zip(circuits, cold):
            assert_bit_identical(dense_apply(circuit, state), state_out)
            assert circuit_unitary(circuit, 2)[0].tobytes() == u.tobytes()

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
        assert circuit.elements[0]._ident[0] == "bs"  # cached on the instance
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

    @pytest.mark.parametrize("truncation", [1, 2])
    @pytest.mark.parametrize("elem", BAND_RULE_CASES,
                             ids=lambda e: e.kind + str(e.params.get("q", "")))
    def test_two_source_rows_are_local_mixers(self, elem, truncation):
        """What circuit_unitary relies on: the two-source rows read as many
        distinct rows as they write, all of them rows the element rewrites,
        and no one-source row reads any of them."""
        basis = ModeBasis(pool_paths(), truncation)
        (tgt, src, _), (tgt2, s1, _, s2, _) = elements._element_rows(elem, basis)
        sources = set(np.concatenate([s1, s2]).tolist())
        assert len(sources) == len(tgt2)
        assert sources <= set(np.concatenate([tgt, tgt2]).tolist())
        assert not sources & set(src.tolist())
        assert (len(tgt2) > 0) == (elem.kind in ("bs", "hwp"))

    @pytest.mark.parametrize("break_rows", ["source off the targets", "too few sources",
                                            "source read by a one-source row"])
    def test_circuit_unitary_rejects_rows_that_are_no_local_mixer(self, monkeypatch,
                                                                   break_rows):
        circuit = Circuit("bs", (beam_splitter("p0", "p1", "p2", "p3", t=0.3),
                                 phase_delay("q", 0.5)), "p0", ())
        real = elements._circuit_rows

        def broken(elems, basis):
            rows = real(elems, basis)
            (t1, s1, f1), (t2, a, fa, b, fb) = rows[0]  # the splitter's
            if break_rows == "source off the targets":
                # a mode on q, which the splitter leaves as it is
                a = np.where(a == a[0], basis.size - 1, a)
            elif break_rows == "too few sources":
                b = a
            else:
                s1 = np.concatenate(([a[0]], s1[1:]))
            return [((t1, s1, f1), (t2, a, fa, b, fb)), *rows[1:]]

        circuit_unitary(circuit, 1)  # the real rows are cached now
        monkeypatch.setattr(elements, "_circuit_rows", broken)
        with pytest.raises(ValueError, match="bs mixes rows"):
            circuit_unitary(circuit, 1)

    def test_circuit_unitary_peak_memory_is_its_output(self):
        """The analyzer at K = 16 (n = 1056): the unitary is built on its
        support and written by one scatter, so the peak traced memory stays
        within 1.25 times the output matrix (17.0 MiB)."""
        circuit = build_soba()
        circuit_unitary(circuit, 1)
        clear_dense_caches()
        tracemalloc.start()
        try:
            u, basis = circuit_unitary(circuit, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.size == 1056
        assert peak <= 1.25 * u.nbytes, (peak, u.nbytes)

    @pytest.mark.parametrize("truncation", [1, 2, 3])
    @pytest.mark.parametrize("elem", BAND_RULE_CASES,
                             ids=lambda e: e.kind + str(e.params.get("q", "")))
    def test_lifted_rows_equal_the_rows_expanded_on_the_larger_basis(self, elem, truncation):
        """A path before, between and after the element's own ones."""
        own = ModeBasis(elem.paths(), truncation)
        basis = ModeBasis(("a",) + pool_paths() + ("q",), truncation)
        lifted = elements._lift(elements._circuit_rows((elem,), own), own, basis)
        direct = elements._circuit_rows((elem,), basis)
        assert len(lifted) == len(direct) == 1
        for got_group, want_group in zip(lifted[0], direct[0]):
            for got, want in zip(got_group, want_group, strict=True):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("truncation", [0, -1])
    def test_a_band_below_one_raises_before_any_work(self, truncation):
        with pytest.raises(TruncationError, match="K >= 1"):
            circuit_unitary(build_sorter(), truncation)



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
    def reference_unitary(circuit, basis):
        u = np.eye(basis.size, dtype=complex)
        for elem in circuit.elements:
            u = reference_element_matrix(elem, basis) @ u
        return u

    @classmethod
    def unitary(cls, circuit, truncation):
        u, basis = circuit_unitary(circuit, truncation)
        assert np.abs(u - cls.reference_unitary(circuit, basis)).max() <= 1e-12
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

    # Photon 1 and photon 2 on disjoint path sets, or one of them on a path
    # ("q") that the circuit never touches, where the unitary is the identity.
    PAIR_PLACES = {
        "disjoint": lambda paths: (paths[:2], paths[2:4]),
        "photon 1 untouched": lambda paths: (("q",), paths[:3]),
        "photon 2 untouched": lambda paths: (paths[:3], ("q",)),
    }

    @pytest.mark.parametrize("place", list(PAIR_PLACES))
    @pytest.mark.parametrize("name,seed,truncation", CASES)
    def test_pair_on_part_of_the_basis(self, name, seed, truncation, place):
        circuit, rng = self.circuit_of(name, seed)
        paths1, paths2 = self.PAIR_PLACES[place](circuit.paths())
        basis = ModeBasis(circuit.paths() + ("q",), truncation)
        u = self.reference_unitary(circuit, basis)
        state = random_entangled_pair(rng, truncation, 64, paths1, paths2)
        m = basis.to_matrix(state)
        for slot, want in ((1, u @ m), (2, m @ u.T), ("both", u @ m @ u.T)):
            got = basis.to_matrix(dense_apply(circuit, state, slot=slot))
            assert np.abs(got - want).max() <= 1e-12, slot

    @pytest.mark.parametrize("slot", [1, 2, "both"])
    def test_pair_edge_values_come_out_as_the_constructor_keeps_them(self, slot):
        """The finite EDGE_VALUES on path "q" for photon 1 against every
        mode of photon 2 on "in" and the other way round, and the NaN on "q"
        for both photons, so no element reads it.  The result equals, bit
        for bit, the state the constructor builds from every entry of the
        whole pair matrix stepped row by row, and matches the unitary on
        every other entry."""
        truncation = 2
        circuit = build_soba()
        basis = ModeBasis(circuit.paths() + ("q",), truncation)
        rng = np.random.default_rng(1240)
        amps = dict(random_entangled_pair(rng, truncation, 32, ("in",)).amplitudes)
        in_keys = [mode(m, pol) for pol in (H, V) for m in range(-truncation, truncation + 1)]
        finite = [value for value in EDGE_VALUES if not cmath.isnan(value)]
        for j, value in enumerate(finite):
            pol, m = divmod(j, 2 * truncation + 1)
            q_key = mode(m - truncation, (H, V)[pol], "q")
            for key in in_keys:
                amps[(q_key, key)] = amps[(key, q_key)] = value
        nan_key = mode(0, H, "q")
        amps[(nan_key, nan_key)] = complex(math.nan, 0.0)
        state = TwoPhotonState(amps, truncation)
        m = basis.to_matrix(state)

        full = m.copy()  # every entry of the pair matrix, stepped row by row
        for photon in (1, 2):
            if slot in (photon, "both"):
                for rows in elements._circuit_rows(circuit.elements, basis):
                    elements._step(full, rows)
            full = full.T.copy()
        want = TwoPhotonState({(basis.key_at(r), basis.key_at(c)): full[r, c]
                               for r in range(basis.size) for c in range(basis.size)},
                              truncation)
        got = dense_apply(circuit, state, slot=slot)
        assert_bit_identical(got, want)

        u = self.reference_unitary(circuit, basis)
        nan = np.isnan(m)
        m[nan] = 0.0
        dense = {1: u @ m, 2: m @ u.T, "both": u @ m @ u.T}[slot]
        dense[nan] = math.nan
        got = basis.to_matrix(got)
        assert np.array_equal(np.isnan(got), nan)
        assert np.abs(got[~nan] - dense[~nan]).max() <= 1e-12

    def test_pair_peak_memory_stays_below_one_square_matrix(self):
        """A one-path pair through the analyzer at K = 16 (n = 1056): the
        pair is stepped where it has support, so the peak traced memory stays
        below one n x n complex matrix (17.8 MB)."""
        truncation = 16
        circuit = build_soba()
        n = ModeBasis(circuit.paths(), truncation).size
        assert n == 1056
        pair = random_entangled_pair(np.random.default_rng(1270), truncation, 2000, ("in",))
        clear_dense_caches()
        tracemalloc.start()
        try:
            out = dense_apply(circuit, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > 0
        assert peak < n * n * np.dtype(complex).itemsize

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


def clear_dense_caches():
    hilbert._basis.cache_clear()
    elements._rows_entry.cache_clear()


def outputs_cold_and_warm(run):
    """run() with the dense caches cleared, then again with them warm."""
    clear_dense_caches()
    cold = run()
    hits = elements._rows_entry.cache_info().hits
    warm = run()
    assert elements._rows_entry.cache_info().hits > hits
    return cold, warm


def assert_dense_state_cold_and_warm(run):
    """run() gives one state, bit for bit, with the dense caches cold and
    warm, and it is the state the public constructor builds from its
    amplitudes: dense outputs skip the constructor, so they must match it."""
    cold, warm = outputs_cold_and_warm(run)
    assert_bit_identical(cold, warm)
    assert_bit_identical(type(cold)(cold.amplitudes, cold.truncation), cold)


class TestDenseCaches:
    """The oracle keeps its bases and each circuit's rows in bounded LRUs;
    an output never depends on what they hold.  The random circuits may
    leave pool paths untouched, so their rows are lifted."""

    @pytest.mark.parametrize("seed", range(60))
    def test_cold_outputs_equal_warm_outputs_bit_for_bit(self, seed):
        rng = np.random.default_rng(1300 + seed)
        truncation = 1 + seed % 3
        circuit = random_circuit(rng, int(rng.integers(1, 13)))
        single = random_full_state(rng, truncation, paths=pool_paths())
        pair = random_pool_pair(rng, truncation)
        assert_dense_state_cold_and_warm(lambda: dense_apply(circuit, single))
        for slot in (1, 2, "both"):
            assert_dense_state_cold_and_warm(lambda: dense_apply(circuit, pair, slot=slot))
        cold, warm = outputs_cold_and_warm(lambda: circuit_unitary(circuit, truncation))
        assert cold[0].tobytes() == warm[0].tobytes()
        assert cold[1] is warm[1]

    @pytest.mark.parametrize("truncation", [2, 4])
    def test_analyzer_cold_equals_warm_bit_for_bit(self, truncation):
        rng = np.random.default_rng(1370 + truncation)
        single = random_full_state(rng, truncation)
        pair = random_entangled_pair(rng, truncation, 64, ("in",))
        assert_dense_state_cold_and_warm(lambda: dense_apply(build_soba(), single))
        for slot in (1, 2, "both"):
            assert_dense_state_cold_and_warm(lambda: dense_apply(build_soba(), pair, slot=slot))
        cold, warm = outputs_cold_and_warm(lambda: circuit_unitary(build_soba(), truncation))
        assert cold[0].tobytes() == warm[0].tobytes()

    def test_a_circuit_expands_once_whatever_the_state_paths(self):
        """dense_apply of a state on more paths than the circuit lifts the
        circuit's own rows, so circuit_unitary finds them in the cache."""
        circuit = Circuit("part", (beam_splitter("p0", "p1", "p2", "p3", t=0.3),
                                   spiral_phase_plate("p2", 1)), "p0", ())
        single = random_full_state(np.random.default_rng(1385), 2, paths=pool_paths())
        pair = random_entangled_pair(np.random.default_rng(1386), 2, 32, ("p0", "q"))
        for state in (single, pair):
            clear_dense_caches()
            dense_apply(circuit, state)
            misses = elements._rows_entry.cache_info().misses
            assert misses == 1
            circuit_unitary(circuit, 2)
            assert elements._rows_entry.cache_info().misses == misses

    def test_cached_rows_are_read_only(self):
        circuit = every_kind_circuit(np.random.default_rng(1380))
        basis = ModeBasis(pool_paths(), 2)
        rows = elements._circuit_rows(circuit.elements, basis)
        assert elements._circuit_rows(circuit.elements, basis) is rows
        arrays = [array for element_rows in rows for group in element_rows for array in group]
        assert len(arrays) == 8 * len(circuit.elements)
        for array in arrays:
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            rows[0][0][0][...] = 0

    def test_rows_cache_holds_at_most_its_bound(self):
        state = PhotonState({mode(0, H): 1.0}, 2)
        circuits = [Circuit("plate", (phase_delay("in", 0.01 * n),), "in", ())
                    for n in range(ROWS_CACHE_SIZE + 5)]
        clear_dense_caches()
        for circuit in circuits:
            dense_apply(circuit, state)
            circuit_unitary(circuit, 2)
            assert elements._rows_entry.cache_info().currsize <= ROWS_CACHE_SIZE
        assert elements._rows_entry.cache_info().currsize == ROWS_CACHE_SIZE

    def test_basis_cache_holds_at_most_its_bound_and_one_basis_per_path_set(self):
        clear_dense_caches()
        basis = hilbert._shared_basis(("b", "a", "b"), 2)
        assert basis.paths == ("a", "b") and basis.truncation == 2
        assert hilbert._shared_basis(["a", "b"], 2) is basis
        assert hilbert._shared_basis(("a", "b"), 3) is not basis
        for n in range(BASIS_CACHE_SIZE + 5):
            hilbert._shared_basis((f"p{n}",), 1)
            assert hilbert._basis.cache_info().currsize <= BASIS_CACHE_SIZE
        assert hilbert._basis.cache_info().currsize == BASIS_CACHE_SIZE

    def test_a_basis_over_the_dimension_limit_is_never_cached(self):
        clear_dense_caches()
        too_wide = DENSE_DIM_LIMIT // 2  # one path, two polarizations, 2K + 1 > limit / 2
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds limit"):
                hilbert._shared_basis(("in",), too_wide)
        assert hilbert._basis.cache_info().currsize == 0


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


def random_entangled_pair(rng, truncation, n_terms=16, paths=pool_paths()[:3], paths2=None):
    """Random pair, photon 1 over `paths` and photon 2 over `paths2` (by
    default the same paths); generally not a product state."""
    def keys_on(paths):
        return [mode(m, pol, p) for p in paths for pol in (H, V)
                for m in range(-truncation, truncation + 1)]
    keys1 = keys_on(paths)
    keys2 = keys1 if paths2 is None else keys_on(paths2)
    amps = {}
    for a, b in rng.integers((len(keys1), len(keys2)), size=(n_terms, 2)):
        amps[(keys1[a], keys2[b])] = complex(*rng.normal(size=2))
    return TwoPhotonState(amps, truncation).normalized()


class TestRandomCircuitProperty:
    """Random circuits of every kind, edge parameters included, preserve the
    norm, the sparse evolution equals the dense oracle, and circuit_unitary
    equals the product of the column-by-column reference matrices."""

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
        u, basis = circuit_unitary(circuit, truncation)
        want = TestDenseRoutesAgree.reference_unitary(circuit, basis)
        assert np.abs(u - want).max() <= 1e-12
