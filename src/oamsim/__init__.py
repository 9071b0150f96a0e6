"""Even/odd OAM photonic qubit simulator.

Photons carrying orbital angular momentum (OAM) span an unbounded ladder of
modes; grouping them by the parity of the OAM index yields a lossless qubit
encoding.  This package builds the optical circuits that manipulate and
measure such qubits as exact unitaries over a truncated
(OAM x polarization x path) mode space, and reproduces interferometric
sorting, Stokes tomography, CHSH tests, entanglement-based key exchange,
spin-orbit Bell-state analysis and hyperentanglement-assisted superdense
coding, analytically or by seeded shot sampling.

Import names from their modules (``from oamsim.elements import
apply_circuit``); each module's ``__all__`` lists its public names.
"""

__version__ = "0.1.0"
