"""
GHZ and parity unlocking against the dense implementations they replaced.

Oracle: test-local copies of the old ``ghz_unlock`` and ``parity_unlock``,
which build the full ``2**n x 2**n`` density matrix, measure it with
``measure_computational`` and read each party's marginal with
``partial_trace``.  The library now works on amplitudes and on the
diagonal, and every report must be exactly equal: the same work floats
(compared by ``repr`` too, so the sign of a zero counts), the same party
order, the same broadcast log and the same error messages.

The dense states and measurement records are cached per ``n`` and
initiator.  They are immutable and deterministic, so caching only keeps
the n = 10 runs quick; it changes no value the oracle computes.
"""

from functools import lru_cache

import numpy as np
import pytest

from conftest import even_parity_state
from qihe.protocols import (
    ProtocolOutcome,
    _party_id,
    ghz_state,
    ghz_unlock,
    parity_unlock,
)
from qihe.qcore import (
    ImpossibleEvidenceError,
    ValidationError,
    measure_computational,
    partial_trace,
    von_neumann_entropy,
)
from qihe.thermo import ThermalContext, WorkReport, cycle_work, extractable_work

_BRANCH_TOL = 1e-12
_PURITY_TOL = 1e-10

CONTEXTS = (ThermalContext(units="natural"), ThermalContext(temperature=77.0, units="SI"))


@lru_cache(maxsize=None)
def _ghz_records(n, initiator):
    return measure_computational(ghz_state(n).density(), initiator)


@lru_cache(maxsize=None)
def _parity_state(n):
    return even_parity_state(n)


def dense_ghz_unlock(n, initiator, ctx, outcome=None):
    """The dense ``ghz_unlock``: measure the density matrix, trace to each qubit."""
    if not 0 <= initiator < n:
        raise ValidationError(f"initiator index {initiator} out of range for {n} parties")
    records = _ghz_records(n, initiator)
    branches = [outcome] if outcome is not None else [0, 1]
    if outcome is not None and outcome not in (0, 1):
        raise ValidationError(f"measurement outcome must be 0 or 1, got {outcome}")

    remote = [i for i in range(n) if i != initiator]
    branch_works: list[dict[int, WorkReport]] = []
    for b in branches:
        rec = records[b]
        if abs(rec.probability - 0.5) > _BRANCH_TOL:
            raise ValidationError(
                f"GHZ branch probability {rec.probability} deviates from 1/2"
            )
        post = rec.post_state
        assert post is not None
        purity = von_neumann_entropy(post)
        if purity > _PURITY_TOL:
            raise ValidationError(
                f"conditioned GHZ remainder is not pure: entropy {purity:.3e} bits"
            )
        works = {}
        for i in remote:
            pos = i if i < initiator else i - 1
            works[i] = extractable_work(partial_trace(post, (pos,)), ctx)
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


def dense_parity_unlock(n, revealed, ctx):
    """The dense ``parity_unlock``: measure the density matrix qubit by qubit."""
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

    state = _parity_state(n)
    for q in sorted(outcomes, reverse=True):
        if state is None:
            raise ValidationError("no subsystems left to condition on")
        recs = measure_computational(state, q)
        rec = recs[outcomes[q]]
        if rec.probability < 1e-12:
            raise ImpossibleEvidenceError(
                f"outcome combination has probability {rec.probability:.3e}; "
                f"qubit {q} cannot read {outcomes[q]} given the other announcements"
            )
        state = rec.post_state

    remaining = [i for i in range(n) if i not in outcomes]
    per_party: dict[str, WorkReport] = {}
    for q in sorted(outcomes):
        per_party[_party_id(q)] = cycle_work(0.0, ctx)
    for pos, i in enumerate(remaining):
        assert state is not None
        marginal = partial_trace(state, (pos,))
        per_party[_party_id(i)] = extractable_work(marginal, ctx)

    log = tuple((_party_id(q), outcomes[q]) for q in sorted(outcomes))
    return ProtocolOutcome(per_party_work=per_party, broadcast_log=log)


def assert_same_outcome(new: ProtocolOutcome, old: ProtocolOutcome) -> None:
    assert new == old
    assert list(new.per_party_work) == list(old.per_party_work)
    assert repr(new) == repr(old)


@pytest.mark.parametrize("n", range(2, 11))
def test_ghz_unlock_equals_the_dense_oracle(n):
    # An SI report is the natural one scaled by a constant; at n = 9 and 10
    # the oracle's 2**(n-1)-dimensional purity checks make a second pass slow.
    for ctx in CONTEXTS if n <= 8 else CONTEXTS[:1]:
        for initiator in range(n):
            for outcome in (None, 0, 1):
                assert_same_outcome(ghz_unlock(n, initiator, ctx, outcome),
                                    dense_ghz_unlock(n, initiator, ctx, outcome))


def _reveal_sets(n, rng, count):
    """Random reveal sets of every size up to ``n - 1``, plus all ``n`` bits with even parity."""
    sets = []
    for _ in range(count):
        size = int(rng.integers(1, n))
        qubits = rng.choice(n, size=size, replace=False)
        sets.append({int(q): int(rng.integers(0, 2)) for q in qubits})
    bits = [int(b) for b in rng.integers(0, 2, size=n - 1)]
    sets.append(dict(enumerate(bits + [sum(bits) % 2])))
    return sets


@pytest.mark.parametrize("n", range(2, 11))
def test_parity_unlock_equals_the_dense_oracle(n):
    rng = np.random.default_rng(1000 + n)
    for revealed in _reveal_sets(n, rng, 6):
        for ctx in CONTEXTS:
            assert_same_outcome(parity_unlock(n, revealed, ctx),
                                dense_parity_unlock(n, revealed, ctx))


@pytest.mark.parametrize("n", range(2, 11))
def test_parity_unlock_impossible_evidence_matches_the_dense_oracle(n):
    ctx = CONTEXTS[0]
    rng = np.random.default_rng(2000 + n)
    for _ in range(3):
        bits = [int(b) for b in rng.integers(0, 2, size=n - 1)]
        odd = dict(enumerate(bits + [1 - sum(bits) % 2]))
        with pytest.raises(ImpossibleEvidenceError) as new:
            parity_unlock(n, odd, ctx)
        with pytest.raises(ImpossibleEvidenceError) as old:
            dense_parity_unlock(n, odd, ctx)
        assert str(new.value) == str(old.value)
