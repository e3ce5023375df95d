"""Multipartite protocols that move extractable work with quantum states.

Three families are implemented:

* point-to-point pair sharing (Bell pair versus its classically
  correlated counterpart, with an optional interceptor),
* GHZ broadcast unlocking, where one measurement plus a classical
  broadcast turns locked marginals into work for everyone else,
* even-parity sharing, whose security rests on a no-information
  theorem: operations on all but two qubits leave the first qubit
  exactly unpolarized.

Parties are named by id only: ``"A"`` and ``"B"`` in the pair protocols,
and ``"A1"`` .. ``"An"`` in the n-party ones, where ``A{i+1}`` holds qubit
``i``.

Measurement branches in verification paths are enumerated exhaustively;
random sampling exists only for generating seeded test channels.  GHZ
unlocking works on the state's amplitudes and parity unlocking on its
diagonal, so neither builds a ``2**n x 2**n`` matrix.  Every function that
builds an ``n``-qubit register takes ``max_dim``, the cap on its dimension
``2**n`` (default: the configured dense cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .qcore import (
    DensityMatrix,
    ImpossibleEvidenceError,
    NullOutcomeError,
    PureState,
    QuantumChannel,
    ValidationError,
    _partial_trace_raw,
    apply_channel,
    basis_state,
    check_capacity,
    mixture,
    partial_trace,
)
from .thermo import ThermalContext, WorkReport, cycle_work, extractable_work

__all__ = [
    "ParityCheckReport",
    "ProtocolOutcome",
    "bell_pair",
    "bell_protocol",
    "classical_pair",
    "classical_pair_protocol",
    "even_parity_state",
    "ghz_state",
    "ghz_unlock",
    "haar_random_channel",
    "parity_no_information_check",
    "parity_no_information_trials",
    "parity_unlock",
]

_BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class ProtocolOutcome:
    """Result of one protocol run.

    ``per_party_work`` maps party ids to their work reports,
    ``broadcast_log`` is the ordered classical record (one entry per
    simulated measurement branch when a protocol enumerates branches),
    and ``interceptor_work`` is present only for runs with an
    interceptor, computed from the interceptor's reduced state alone.
    Which subsystems a party holds is fixed by the protocol and its id
    (see the module docstring); the outcome does not record it.
    """

    per_party_work: dict[str, WorkReport]
    broadcast_log: tuple[tuple[str, int], ...]
    interceptor_work: WorkReport | None = None

    def to_dict(self) -> dict:
        """JSON-ready report: party ids, bare work numbers, broadcast log."""

        def work_entry(wr: WorkReport) -> dict:
            return {
                "work": wr.work,
                "entropy_delta_bits": wr.entropy_delta,
                "landauer_reset": wr.landauer_reset,
            }

        return {
            "parties": {pid: work_entry(wr) for pid, wr in self.per_party_work.items()},
            "broadcast_log": [[pid, outcome] for pid, outcome in self.broadcast_log],
            "interceptor": None if self.interceptor_work is None
            else work_entry(self.interceptor_work),
        }


def bell_pair() -> PureState:
    """The two-qubit state ``(|00> + |11>)/sqrt(2)``."""
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1.0 / math.sqrt(2.0)
    return PureState(amp, (2, 2))


def classical_pair() -> DensityMatrix:
    """The classically correlated pair ``(|00><00| + |11><11|)/2``."""
    return mixture([(0.5, basis_state(0, (2, 2))), (0.5, basis_state(3, (2, 2)))])


def bell_protocol(ctx: ThermalContext, intercepted: bool = False) -> ProtocolOutcome:
    """Ship one half of a Bell pair from A to B and cash in the purity.

    Either marginal alone is maximally mixed and worth nothing, so an
    interceptor who grabs the flying qubit extracts zero work.  If the
    qubit arrives, B holds the reconstructed pure pair (dimension 4)
    and unlocks two bit-units, twice the classically correlated yield.
    """
    psi = bell_pair()
    rho = psi.density()
    flying = partial_trace(rho, (0,))
    work_a = extractable_work(flying, ctx)

    if intercepted:
        interceptor = extractable_work(flying, ctx)
        work_b = extractable_work(partial_trace(rho, (1,)), ctx)
    else:
        interceptor = None
        work_b = extractable_work(psi, ctx)
    return ProtocolOutcome(
        per_party_work={"A": work_a, "B": work_b},
        broadcast_log=(),
        interceptor_work=interceptor,
    )


def classical_pair_protocol(ctx: ThermalContext) -> ProtocolOutcome:
    """Classical benchmark: share a correlated random bit pair instead.

    The joint state is ``(|00><00| + |11><11|)/2`` with one bit of
    residual entropy, so after A's bit arrives B extracts exactly half
    of the Bell-pair yield.  A single held bit is worthless on its own.
    """
    pair = classical_pair()
    work_a = extractable_work(partial_trace(pair, (0,)), ctx)
    work_b = extractable_work(pair, ctx)
    return ProtocolOutcome(
        per_party_work={"A": work_a, "B": work_b},
        broadcast_log=(),
        interceptor_work=None,
    )


def ghz_state(n: int, max_dim: int | None = None) -> PureState:
    """The n-qubit state ``(|0...0> + |1...1>)/sqrt(2)`` for ``n >= 2``."""
    if n < 2:
        raise ValidationError(f"a GHZ state needs at least 2 qubits, got {n}")
    check_capacity(2 ** n, max_dim)
    amp = np.zeros(2 ** n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(amp, (2,) * n)


def _party_id(index: int) -> str:
    return f"A{index + 1}"


def ghz_unlock(
    n: int,
    initiator: int,
    ctx: ThermalContext,
    outcome: int | None = None,
    max_dim: int | None = None,
) -> ProtocolOutcome:
    """One party measures its GHZ qubit and broadcasts; the rest cash in.

    Every single-party marginal of a GHZ state is maximally mixed, so
    nobody can extract anything alone.  After the initiator's
    computational measurement and classical broadcast, each remaining
    party's qubit is conditioned to a pure basis state worth one
    bit-unit, for ``n - 1`` bit-units total.  The initiator's own gain
    is cancelled by the Landauer reset of its measurement record.

    With ``outcome`` unset, both measurement branches are simulated
    exhaustively (no random sampling) and verified to pay out
    identically; the broadcast log then carries one entry per branch.

    A branch is the amplitude slice at the initiator's outcome; its
    normalized remainder ``M`` must pass the :class:`PureState` norm check,
    and a remote party's marginal is ``M M^H`` with that party's axis first.
    """
    if not 0 <= initiator < n:
        raise ValidationError(f"initiator index {initiator} out of range for {n} parties")
    if outcome is not None and outcome not in (0, 1):
        raise ValidationError(f"measurement outcome must be 0 or 1, got {outcome}")
    amp = ghz_state(n, max_dim).amplitudes.reshape((2,) * n)
    branches = [outcome] if outcome is not None else [0, 1]

    remote = [i for i in range(n) if i != initiator]
    branch_works: list[dict[int, WorkReport]] = []
    for b in branches:
        branch = np.take(amp, b, axis=initiator)
        probability = float(np.real(np.vdot(branch, branch)))
        if abs(probability - 0.5) > _BRANCH_TOL:
            raise ValidationError(f"GHZ branch probability {probability} deviates from 1/2")
        post = PureState(branch / math.sqrt(probability), branch.shape)
        works = {}
        for pos, i in enumerate(remote):
            m = np.moveaxis(post.amplitudes.reshape(branch.shape), pos, 0).reshape(2, -1)
            works[i] = extractable_work(DensityMatrix(m @ m.conj().T, (2,)), ctx)
        branch_works.append(works)

    if len(branch_works) == 2:
        for i in remote:
            if abs(branch_works[0][i].work - branch_works[1][i].work) > _BRANCH_TOL:
                raise ValidationError(f"branch payouts differ for party {_party_id(i)}")

    per_party = {_party_id(initiator): cycle_work(0.0, ctx)}
    for i in remote:
        per_party[_party_id(i)] = branch_works[0][i]
    log = tuple((_party_id(initiator), b) for b in branches)
    return ProtocolOutcome(per_party_work=per_party, broadcast_log=log)


def _odd_parity(n: int) -> np.ndarray:
    """Mask over the ``2**n`` basis indices: True where the Hamming weight is odd."""
    odd = np.zeros(1, dtype=bool)
    for _ in range(n):
        odd = np.concatenate([odd, ~odd])
    return odd


def _even_parity_weights(n: int, max_dim: int | None) -> np.ndarray:
    """Diagonal of the n-qubit even-parity state, in basis-index order."""
    if n < 2:
        raise ValidationError(f"an even-parity state needs n >= 2 qubits, got {n}")
    check_capacity(2 ** n, max_dim)
    return np.where(_odd_parity(n), 0.0, 2.0 ** (1 - n))


def even_parity_state(n: int, max_dim: int | None = None) -> DensityMatrix:
    """The n-qubit uniform mixture over all even-parity basis strings.

    The density matrix is diagonal with weight ``2**(1-n)`` on each of
    the ``2**(n-1)`` strings of even Hamming weight and zero elsewhere.
    """
    return DensityMatrix(np.diag(_even_parity_weights(n, max_dim)), (2,) * n)


def haar_random_channel(
    dim: int,
    n_kraus: int,
    rng: np.random.Generator,
    target: tuple[int, ...],
) -> QuantumChannel:
    """Seeded random trace-preserving channel on a ``dim``-dimensional block.

    A Haar-random unitary of size ``n_kraus * dim`` is drawn, its first
    ``dim`` columns form a random isometry, and the isometry is cut into
    ``n_kraus`` stacked blocks which serve as Kraus operators.  Their
    completeness relation is inherited from the isometry.

    The unitary is Mezzadri's QR-of-Ginibre recipe (arXiv:math-ph/0609050).
    Its draws must stay bit-identical to ``scipy.stats.unitary_group.rvs``
    on the same ``Generator``, real parts drawn before imaginary ones: the
    ``verify`` report depends on them, and the tests compare the two.
    """
    if dim < 1 or n_kraus < 1:
        raise ValidationError(f"need dim >= 1 and n_kraus >= 1, got {dim}, {n_kraus}")
    n = dim * n_kraus
    if n == 1:
        big = np.ones((1, 1), dtype=complex)
    else:
        z = 1 / math.sqrt(2) * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q, r = np.linalg.qr(z)
        d = r.diagonal()
        big = q * (d / abs(d))
    isometry = big[:, :dim]
    kraus = tuple(isometry[j * dim:(j + 1) * dim, :] for j in range(n_kraus))
    return QuantumChannel(kraus, target)


@dataclass(frozen=True)
class ParityCheckReport:
    """Numerical certificate for the even-parity no-information theorem.

    ``c_even`` and ``c_odd`` are the parity-resolved Kraus weights
    (independent double sums over matrix elements); the deviations
    compare the actual reduced states against the structure those
    weights predict: the normalized first-qubit state must equal
    ``I/2`` and the first-two-qubit block must be the even/odd diagonal
    combination scaled by ``2**(1-n)``.
    """

    n: int
    c_even: float
    c_odd: float
    rho1_deviation: float
    rho12_deviation: float
    branch_weight: float


def parity_no_information_check(
    n: int, ch: QuantumChannel, max_dim: int | None = None
) -> ParityCheckReport:
    """Verify that attacking qubits 2..n-1 of the parity state reveals nothing.

    ``ch`` must target exactly the last ``n - 2`` qubits (indices
    ``2..n-1``); touching the first two is an argument error, since the
    theorem is about what the *other* parties can do.  Works for any
    Kraus map, including selective (trace-non-increasing) branches.
    """
    if n < 3:
        raise ValidationError(f"the no-information check needs n >= 3, got {n}")
    expected_target = tuple(range(2, n))
    if ch.target != expected_target:
        raise ValidationError(
            f"channel must act on qubits {expected_target} only, got target {ch.target}"
        )
    block = 2 ** (n - 2)
    if ch.input_dim != block or ch.output_dim != block:
        raise ValidationError(
            f"channel must be a square map on dimension {block}, "
            f"got {ch.output_dim} x {ch.input_dim}"
        )

    out, norm = apply_channel(even_parity_state(n, max_dim), ch)
    unnorm = out.data * norm
    dims = (2,) * n

    # Accumulate Kraus operator by operator, each in ascending column order:
    # a vectorised sum changes the last ulp of the reported weights.
    odd = _odd_parity(n - 2)
    c_even = 0.0
    c_odd = 0.0
    for k in ch.kraus:
        mags = np.abs(k) ** 2
        for i in range(block):
            col = float(np.sum(mags[:, i]))
            if odd[i]:
                c_odd += col
            else:
                c_even += col

    scale = 2.0 ** (1 - n)
    predicted12 = scale * np.diag(
        [c_even, c_odd, c_odd, c_even]
    ).astype(complex)
    rho12 = _partial_trace_raw(unnorm, dims, [0, 1])
    dev12 = float(np.max(np.abs(rho12 - predicted12)))

    rho1 = _partial_trace_raw(unnorm, dims, [0])
    weight = float(np.real(np.trace(rho1)))
    if weight < 1e-14:
        raise NullOutcomeError("channel branch annihilated the parity state")
    dev1 = float(np.max(np.abs(rho1 / weight - np.eye(2) / 2.0)))

    return ParityCheckReport(
        n=n,
        c_even=c_even,
        c_odd=c_odd,
        rho1_deviation=dev1,
        rho12_deviation=dev12,
        branch_weight=weight,
    )


def parity_no_information_trials(
    n: int,
    trials: int,
    seed: int = 0,
    max_kraus: int = 4,
    max_dim: int | None = None,
) -> list[ParityCheckReport]:
    """Run the no-information check against seeded Haar-random channels."""
    if n < 3:
        raise ValidationError(f"the no-information check needs n >= 3, got {n}")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    check_capacity(2 ** n, max_dim)  # before any 2**(n-2)-sized channel is drawn
    rng = np.random.default_rng(seed)
    block = 2 ** (n - 2)
    reports = []
    for _ in range(trials):
        n_kraus = int(rng.integers(1, max_kraus + 1))
        ch = haar_random_channel(block, n_kraus, rng, tuple(range(2, n)))
        reports.append(parity_no_information_check(n, ch, max_dim))
    return reports


def parity_unlock(
    n: int,
    revealed: Mapping[int, int],
    ctx: ThermalContext,
    max_dim: int | None = None,
) -> ProtocolOutcome:
    """Condition the even-parity state on broadcast measurement outcomes.

    ``revealed`` maps qubit indices to announced outcomes.  With
    ``n - 1`` of the ``n`` bits revealed, the remaining qubit is fully
    determined by parity and its holder extracts one bit-unit; with
    fewer revelations every unrevealed marginal stays maximally mixed
    and nothing is unlocked.  Announcing an outcome combination of
    probability zero (only possible when all ``n`` bits are claimed
    with odd parity) raises :class:`ImpossibleEvidenceError`.  Conditioning
    slices the ``2**n`` diagonal, and each marginal is an axis sum of it.
    """
    if n < 2:
        raise ValidationError(f"the parity protocol needs n >= 2 qubits, got {n}")
    outcomes = {int(q): int(b) for q, b in revealed.items()}
    if len(outcomes) != len(revealed):
        raise ValidationError("revealed qubit indices must be distinct")
    for q, b in outcomes.items():
        if not 0 <= q < n:
            raise ValidationError(f"revealed qubit index {q} out of range for n = {n}")
        if b not in (0, 1):
            raise ValidationError(f"revealed outcome for qubit {q} must be 0 or 1, got {b}")

    weights = _even_parity_weights(n, max_dim).reshape((2,) * n)
    for q in sorted(outcomes, reverse=True):
        branch = np.take(weights, outcomes[q], axis=q)
        probability = float(branch.sum() / weights.sum())
        if probability < 1e-12:
            raise ImpossibleEvidenceError(
                f"outcome combination has probability {probability:.3e}; "
                f"qubit {q} cannot read {outcomes[q]} given the other announcements"
            )
        weights = branch

    remaining = [i for i in range(n) if i not in outcomes]
    per_party: dict[str, WorkReport] = {}
    for q in sorted(outcomes):
        per_party[_party_id(q)] = cycle_work(0.0, ctx)
    for pos, i in enumerate(remaining):
        others = tuple(a for a in range(len(remaining)) if a != pos)
        marginal = weights.sum(axis=others) / weights.sum()
        per_party[_party_id(i)] = extractable_work(DensityMatrix(np.diag(marginal), (2,)), ctx)

    log = tuple((_party_id(q), outcomes[q]) for q in sorted(outcomes))
    return ProtocolOutcome(per_party_work=per_party, broadcast_log=log)
