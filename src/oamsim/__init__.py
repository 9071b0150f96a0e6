"""Even/odd OAM photonic qubit simulator.

Photons carrying orbital angular momentum (OAM) span an unbounded ladder of
modes; grouping them by the parity of the OAM index yields a lossless qubit
encoding.  This package builds the optical circuits that manipulate and
measure such qubits as exact unitaries over a truncated
(OAM x polarization x path) mode space, and reproduces interferometric
sorting, Stokes tomography, CHSH tests, entanglement-based key exchange,
spin-orbit Bell-state analysis and hyperentanglement-assisted superdense
coding, analytically or by seeded shot sampling.
"""

from .hilbert import (
    EVEN,
    H,
    ModeBasis,
    ModeKey,
    NormalizationError,
    ODD,
    PhotonState,
    SpectrumModel,
    TruncationError,
    TwoPhotonState,
    V,
    inner_product,
    mode,
    parity,
    parity_marginals,
)
from .elements import (
    Circuit,
    Element,
    WrapGuardError,
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
    half_wave_plate,
    mirror,
    phase_delay,
    polarizing_bs,
    spiral_phase_plate,
)
from .sources import (
    BELL_PHI_PLUS,
    PRODUCT_HH,
    SourceSpec,
    canonical_pair_spectrum,
    hybrid_two_photon,
    hyper_source,
    postselect_partner,
    prepare_single_photon_bell,
    source_band,
    spdc,
    vortex_symmetric,
)
from .tomography import (
    QubitDensity,
    StokesVector,
    fidelity,
    measure_s0_s1,
    measure_s2,
    measure_s3,
    reconstruct,
    stokes,
)
from .bell import (
    CHSHResult,
    CoincidenceTable,
    EkertResult,
    ProjectionSetting,
    TSIRELSON,
    chsh,
    coincidence,
    ekert_run,
    project_single,
    projector_coincidence,
    task_rng,
)
from .soba import (
    DenseCodingResult,
    build_soba,
    dense_coding_roundtrip,
    encode_polarization_bell,
    hbsa_decode,
    joint_soba,
    oc_p_gate,
    pc_o_gate,
    soba_route,
)

__version__ = "0.1.0"
