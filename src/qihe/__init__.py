"""qihe: a workbench for quantum information heat engines.

The library covers the full chain from single-engine bookkeeping to
block-coding limits:

* :mod:`qihe.qcore` -- validated density matrices, channels and
  measurements on small multipartite systems;
* :mod:`qihe.thermo` -- entropy-to-work conversion, Landauer reset
  costs and remotely completed Carnot cycles;
* :mod:`qihe.protocols` -- Bell, GHZ and even-parity energy
  distribution with interceptor and no-information analyses;
* :mod:`qihe.coding` -- Holevo communication/energy tradeoffs, typical
  subspaces and refactorization ledgers;
* :mod:`qihe.cli` -- the ``qihe`` command-line front end.
"""

from .qcore import (
    CapacityError,
    DensityMatrix,
    ImpossibleEvidenceError,
    MeasurementRecord,
    NullOutcomeError,
    PureState,
    QiheError,
    QuantumChannel,
    ValidationError,
    apply_channel,
    basis_state,
    make_density,
    matrix_from_pairs,
    matrix_to_pairs,
    max_dimension,
    measure_computational,
    mixture,
    partial_trace,
    tensor_power,
    von_neumann_entropy,
)
from .thermo import (
    BOLTZMANN_SI,
    CarnotReport,
    ThermalContext,
    WorkReport,
    cycle_work,
    extractable_work,
    landauer_reset_cost,
    remote_carnot,
    unit_factor,
)
from .protocols import (
    ParityCheckReport,
    ProtocolOutcome,
    bell_pair,
    bell_protocol,
    classical_pair,
    classical_pair_protocol,
    even_parity_state,
    ghz_state,
    ghz_unlock,
    haar_random_channel,
    parity_no_information_check,
    parity_no_information_trials,
    parity_unlock,
)
from .coding import (
    Alphabet,
    RefactorizationLedger,
    RefactorizationUnitary,
    TradeoffPoint,
    TypicalSubspace,
    block_alphabet,
    ensemble_state,
    holevo_chi,
    load_alphabet,
    orthogonal_pure_alphabet,
    qubit_capture_curve,
    refactorization_ledger,
    refactorization_unitary,
    save_alphabet,
    tradeoff_curve,
    tradeoff_point,
    typical_subspace,
    zero_plus_alphabet,
)

__version__ = "0.1.0"
