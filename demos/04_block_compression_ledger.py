"""
Compressing long blocks and balancing the work ledger.

For a source emitting rho_B per letter, the L-letter block state rho_B^(x)L
concentrates almost all its weight on a "typical" subspace whose dimension is
about 2^(L S).  This script shows

  * the capture probability climbing toward 1 as L grows, computed by the
    exact combinatorial census (no eigendecomposition needed for big L);

  * the refactorization ledger: extract L x M bit-units by purifying the
    whole block, then pay back log2(d_typ) bit-units to reset the ancilla
    that recorded where the block landed — netting about M - S per letter;

  * the explicit (small-L) swap unitary that moves the typical subspace onto
    a dedicated register, with its unitarity and mapping residuals.

Run:
    python3 demos/04_block_compression_ledger.py
"""

import numpy as np

from qihe.qcore import make_density
from qihe.thermo import ThermalContext
from qihe.coding import (
    Alphabet,
    qubit_capture_curve,
    refactorization_ledger,
    refactorization_unitary,
    typical_subspace,
)


def classical_qubit_alphabet(p: float) -> Alphabet:
    return Alphabet(
        letters=(
            make_density(np.diag([1.0, 0.0]).astype(complex), 2),
            make_density(np.diag([0.0, 1.0]).astype(complex), 2),
        ),
        probs=(p, 1.0 - p),
    )


def main():
    ctx = ThermalContext(units="natural")
    p, delta = 0.9, 0.2
    rho_b = make_density(np.diag([p, 1 - p]).astype(complex), 2)

    print("=== Typical weight concentrates ===")
    print(f"source diag({p:g}, {1 - p:g}), window half-width delta={delta}")
    print(f"{'L':>6}{'typical dim':>16}{'2^(L(S+d)) cap':>18}{'capture':>14}")
    for L in (8, 16, 24, 64, 256):
        sub = typical_subspace(rho_b, L=L, delta=delta)
        cap = 2.0 ** (L * (sub.source_entropy + delta))
        dim_label = str(sub.dim) if sub.dim < 10**12 else f"2^{np.log2(float(sub.dim)):.1f}"
        print(f"{L:>6}{dim_label:>16}{cap:>18.3e}{sub.capture_probability:>14.6f}")
    far = qubit_capture_curve(p, [1000, 4000], delta)
    for L, capture in far:
        print(f"{L:>6}{'(census only)':>16}{'':>18}{capture:>14.12f}")
    print()

    print("=== The per-letter work ledger ===")
    ab = classical_qubit_alphabet(p)
    print(f"{'L':>6}{'gross W1':>10}{'ancilla':>10}{'net/letter':>12}{'bracket':>24}")
    for L in (16, 64, 256):
        led = refactorization_ledger(ab, L, delta, ctx)
        bracket = f"[{led.lower_bound:+.3f}, {led.upper_bound:+.3f}]"
        print(
            f"{L:>6}{led.w1:>10.1f}{led.w_ancilla:>10.2f}"
            f"{led.net_per_letter:>12.4f}{bracket:>24}"
        )
    asymptote = 1.0 - (-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))
    print(f"the net rate climbs toward M - S = {asymptote:.4f} bit-units per letter")
    print()

    print("=== The swap unitary, spelled out at small L ===")
    from qihe.coding import orthogonal_pure_alphabet

    for L in (1, 2, 3):
        led = refactorization_ledger(orthogonal_pure_alphabet(), L, 0.1, ctx)
        ru = refactorization_unitary(led.subspace)
        print(
            f"L={L}: matrix {ru.matrix.shape[0]}x{ru.matrix.shape[1]}, "
            f"unitarity residual={ru.unitarity_residual:.1e}, "
            f"mapping residual={ru.mapping_residual:.1e}"
        )
    print("for this flat-spectrum alphabet the swap is an exact permutation")


if __name__ == "__main__":
    main()
