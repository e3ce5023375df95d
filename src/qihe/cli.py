"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``work``,
``carnot``, ``protocol {bell,classical,ghz,parity}``, ``holevo``,
``tradeoff``, ``typical``, ``refactor`` and ``verify``.  Each offers only
the run-wide flags its handler reads (``--units``, ``--temperature``,
``--capacity``, ``--seed``), and each ``protocol parity`` mode only those
it reads, so any other is a usage error; a subcommand without ``--units``
reports energies in natural bit-units.  Reports are emitted as JSON by
default (sorted keys, compact separators, so a fixed configuration and
seed reproduce byte-identical output), with ``pretty`` for humans and
``csv`` for ``tradeoff`` alone.  Every numeric field in a
JSON report carries a ``<name>_units`` sibling, attached by ``_annotate``
from the field's name alone.

Exit codes: 0 success, 1 failed verification, 2 validation error,
3 capacity error, 64 unknown flags or unusable command lines.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .coding import (
    _entropy_budget,
    block_alphabet,
    load_alphabet,
    refactorization_ledger,
    refactorization_unitary,
    tradeoff_point,
    typical_subspace,
)
from .protocols import (
    bell_pair,
    bell_protocol,
    classical_pair,
    classical_pair_protocol,
    ghz_unlock,
    parity_no_information_trials,
    parity_unlock,
)
from .qcore import (
    CapacityError,
    DensityMatrix,
    ValidationError,
    _CAPACITY,
    _capped_power,
    basis_state,
    check_capacity,
    entropy_from_eigenvalues,
    max_dimension,
    von_neumann_entropy,
)
from .thermo import ThermalContext, cycle_work, remote_carnot
from .verify import run_acceptance, summary

__all__ = ["main", "run"]

_KELVIN_KEYS = {"temperature", "t_low", "t_high"}
_ENERGY_KEYS = {"work", "w1", "w_ancilla", "net_per_letter", "lower_bound", "upper_bound"}
_BIT_KEYS = {
    "comm_bits_per_letter", "energy_bits_per_letter", "chi_zero_plus", "chi_eigenvalue_oracle",
    "chi_error", "worst_identity_residual", "ceiling", "endpoint_error",
}
_JOULE_KEYS = {"si_work", "work_per_qubit", "heat_from_hot"}
_BIT_UNIT_KEYS = {
    "natural_work", "bell_work", "interceptor_work", "classical_work",
}


def _unit_hint(key: str, energy_unit: str) -> str:
    if key in _KELVIN_KEYS:
        return "K"
    if key.endswith("_bits") or key.endswith("entropy") or key in _BIT_KEYS:
        return "bit"
    if key in _ENERGY_KEYS:
        return energy_unit
    if key in _BIT_UNIT_KEYS:
        return "bit-unit"
    if key in _JOULE_KEYS:
        return "J"
    return "dimensionless"


def _annotate(obj, energy_unit: str):
    """Attach a ``_units`` sibling to every numeric dict entry, recursively."""
    if isinstance(obj, dict):
        out = {k: _annotate(v, energy_unit) for k, v in obj.items()}
        for k, v in list(out.items()):
            if k.endswith("_units") or isinstance(v, bool):
                continue
            if isinstance(v, (int, float)) and f"{k}_units" not in out:
                out[f"{k}_units"] = _unit_hint(k, energy_unit)
        return out
    if isinstance(obj, (list, tuple)):
        return [_annotate(v, energy_unit) for v in obj]
    return obj


def _pretty_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        units = {k[:-6]: v for k, v in obj.items() if k.endswith("_units")}
        for k, v in obj.items():
            if k.endswith("_units"):
                continue
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_pretty_lines(v, indent + 1))
            else:
                suffix = f" {units[k]}" if k in units and units[k] != "dimensionless" else ""
                lines.append(f"{pad}{k}: {v}{suffix}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(_pretty_lines(v, indent))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _emit(report: dict, output: str, energy_unit: str,
          csv_table: tuple[list[str], list[list]] | None = None) -> None:
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # Python 3.11+
    if limit is not None:
        sys.set_int_max_str_digits(0)  # so an exact typical dim prints at any size
    try:
        if output == "json":
            print(json.dumps(_annotate(report, energy_unit), sort_keys=True,
                             separators=(",", ":")))
        elif output == "pretty":
            print("\n".join(_pretty_lines(_annotate(report, energy_unit))))
        else:  # csv, offered by tradeoff alone
            header, rows = csv_table
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _cmd_work(args, ctx: ThermalContext) -> tuple[dict, None]:
    if args.state == "pure-qubit":
        dim, entropy = basis_state(0, 2).dim, 0.0
    elif args.state == "maximally-mixed":
        dim = args.d
        if dim < 1:
            raise ValidationError(f"--d must be at least 1, got {dim}")
        check_capacity(dim)
        entropy = entropy_from_eigenvalues(np.full(dim, 1.0 / dim))
    elif args.state == "bell-pair":
        dim, entropy = bell_pair().dim, 0.0
    else:  # classical-pair
        state = classical_pair()
        dim, entropy = state.dim, von_neumann_entropy(state)
    wr = cycle_work(math.log2(dim) - entropy, ctx)
    report = {
        "state": args.state,
        "dimension": dim,
        "entropy_bits": entropy,
        "work_bits": wr.entropy_delta,
        "work": wr.work,
        "temperature": ctx.temperature,
    }
    return report, None


def _cmd_carnot(args, ctx: ThermalContext) -> tuple[dict, None]:
    rep = remote_carnot(args.t_low, args.t_high)
    report = {
        "t_low": rep.t_low,
        "t_high": rep.t_high,
        "work_per_qubit": rep.work_per_qubit,
        "heat_from_hot": rep.heat_from_hot,
        "efficiency": rep.efficiency,
    }
    return report, None


def _parse_reveal(items: list[str] | None) -> dict[int, int]:
    revealed: dict[int, int] = {}
    for item in items or []:
        try:
            q_text, b_text = item.split(":")
            q, b = int(q_text), int(b_text)
        except ValueError as exc:
            raise ValidationError(
                f"--reveal expects INDEX:BIT entries, got {item!r}"
            ) from exc
        if q in revealed:
            raise ValidationError(f"qubit {q} revealed twice")
        revealed[q] = b
    return revealed


def _cmd_protocol(args, ctx: ThermalContext) -> tuple[dict, None]:
    if args.which == "bell":
        outcome = bell_protocol(ctx, intercepted=args.intercept)
        report = {"protocol": "bell", "intercepted": args.intercept}
        report.update(outcome.to_dict())
    elif args.which == "classical":
        outcome = classical_pair_protocol(ctx)
        report = {"protocol": "classical"}
        report.update(outcome.to_dict())
    elif args.which == "ghz":
        outcome = ghz_unlock(args.n, args.initiator, ctx)
        report = {"protocol": "ghz", "n": args.n, "initiator": args.initiator}
        report.update(outcome.to_dict())
    else:  # parity
        revealed = _parse_reveal(args.reveal)
        if revealed:
            outcome = parity_unlock(args.n, revealed, ctx)
            report = {"protocol": "parity", "mode": "unlock", "n": args.n}
            report.update(outcome.to_dict())
        else:
            reports = parity_no_information_trials(args.n, args.trials, seed=args.seed)
            report = {
                "protocol": "parity",
                "mode": "no-information-check",
                "n": args.n,
                "trials": args.trials,
                "seed": args.seed,
                "worst_rho1_deviation": max(r.rho1_deviation for r in reports),
                "worst_rho12_deviation": max(r.rho12_deviation for r in reports),
            }
    return report, None


def _cmd_holevo(args, ctx: ThermalContext) -> tuple[dict, None]:
    alphabet = load_alphabet(args.alphabet)
    point, s_b = _entropy_budget(alphabet)
    report = {
        "alphabet": args.alphabet,
        "n_letters": len(alphabet.letters),
        "dims": alphabet.d,
        "chi_bits": point.comm_bits,
        "ensemble_entropy_bits": s_b,
        "avg_letter_entropy_bits": point.avg_letter_entropy,
    }
    return report, None


def _cmd_tradeoff(args, ctx: ThermalContext) -> tuple[dict, tuple[list[str], list[list]]]:
    if args.block < 0:
        raise ValidationError(f"--block must be non-negative, got {args.block}")
    alphabet = load_alphabet(args.alphabet)
    point = tradeoff_point(alphabet, ctx)
    curve = point.endpoints()
    report = {
        "alphabet": args.alphabet,
        "point": {
            "energy_bits": point.energy_bits,
            "comm_bits": point.comm_bits,
            "avg_letter_entropy_bits": point.avg_letter_entropy,
            "capacity_bits": point.capacity_bits,
        },
        "curve": {
            "full_communication": {"comm_bits": curve[0][0], "energy_bits": curve[0][1]},
            "all_energy": {"comm_bits": curve[1][0], "energy_bits": curve[1][1]},
        },
    }
    if args.block:
        # the last row is the largest, so it is checked before any row runs
        check_capacity(_capped_power(alphabet.d, args.block))
        sweep = []
        for n in range(1, args.block + 1):
            bp = _entropy_budget(block_alphabet(alphabet, n))[0]
            sweep.append({
                "n": n,
                "comm_bits_per_letter": bp.comm_bits / n,
                "energy_bits_per_letter": bp.energy_bits / n,
            })
        report["blocking"] = sweep
        header = ["n", "comm_bits_per_letter", "energy_bits_per_letter"]
        rows = [[e["n"], e["comm_bits_per_letter"], e["energy_bits_per_letter"]]
                for e in sweep]
    else:
        header = ["comm_bits", "energy_bits"]
        rows = [[curve[0][0], curve[0][1]], [curve[1][0], curve[1][1]]]
    return report, (header, rows)


def _cmd_typical(args, ctx: ThermalContext) -> tuple[dict, None]:
    if not 0.0 < args.p < 1.0:
        raise ValidationError(f"--p must lie strictly between 0 and 1, got {args.p}")
    rho = DensityMatrix(np.diag([args.p, 1.0 - args.p]).astype(complex), (2,))
    sub = typical_subspace(rho, args.L, args.delta)
    report = {
        "p": args.p,
        "L": sub.L,
        "delta": sub.delta,
        "dim": sub.dim,
        "capture_probability": sub.capture_probability,
        "source_entropy_bits": sub.source_entropy,
        "dim_bound_bits": sub.L * (sub.source_entropy + sub.delta),
    }
    return report, None


def _cmd_refactor(args, ctx: ThermalContext) -> tuple[dict, None]:
    alphabet = load_alphabet(args.alphabet)
    ledger = refactorization_ledger(alphabet, args.L, args.delta, ctx)
    report = {
        "alphabet": args.alphabet,
        "L": args.L,
        "delta": args.delta,
        "w1": ledger.w1,
        "w_ancilla": ledger.w_ancilla,
        "net_per_letter": ledger.net_per_letter,
        "lower_bound": ledger.lower_bound,
        "upper_bound": ledger.upper_bound,
        "epsilon": ledger.epsilon,
        "success_probability": ledger.success_probability,
        "typical_dim": ledger.subspace.dim,
        "within_asymptotic_ceiling": ledger.within_asymptotic_ceiling,
    }
    if args.L <= 3:
        check = refactorization_unitary(ledger.subspace)
        report["unitarity_residual"] = check.unitarity_residual
        report["mapping_residual"] = check.mapping_residual
    return report, None


def _cmd_verify(args, ctx: ThermalContext) -> tuple[dict, None]:
    results = run_acceptance(args.seed)
    stream = sys.stdout if args.output == "pretty" else sys.stderr
    for r in results:
        stream.write(f"{'PASS' if r.passed else 'FAIL'} criterion {r.number}: {r.name}\n")
    report = summary(results)
    report["seed"] = args.seed
    return report, None


_HANDLERS = {
    "work": _cmd_work,
    "carnot": _cmd_carnot,
    "protocol": _cmd_protocol,
    "holevo": _cmd_holevo,
    "tradeoff": _cmd_tradeoff,
    "typical": _cmd_typical,
    "refactor": _cmd_refactor,
    "verify": _cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(64)


_RUN_FLAGS = {
    "--units": dict(choices=("natural", "SI"), default="natural",
                    help="energy unit system (default: natural bit-units)"),
    "--temperature": dict(type=float, default=300.0,
                          help="reservoir temperature in kelvin (default: 300)"),
    "--capacity": dict(type=int, default=None,
                       help="dense dimension cap (default: env or 2^14)"),
    "--seed": dict(type=int, default=0,
                   help="seed for randomized demo modes (default: 0)"),
}
_THERMAL = ("--units", "--temperature")


def _add_run_flags(parser: argparse.ArgumentParser, *flags: str,
                   output: tuple[str, ...] = ("json", "pretty")) -> None:
    """Declare the run-wide ``flags`` a subcommand reads, then ``--output``."""
    for flag in flags:
        parser.add_argument(flag, **_RUN_FLAGS[flag])
    parser.add_argument("--output", choices=output, default="json",
                        help="report format (default: json)")


def build_parser() -> _Parser:
    parser = _Parser(prog="qihe",
                     description="Information-heat-engine workbench: entropy-to-work "
                                 "accounting, distribution protocols, coding limits.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("work", help="extractable work of a built-in state")
    _add_run_flags(p, *_THERMAL, "--capacity")
    p.add_argument("--state", default="pure-qubit",
                   choices=("pure-qubit", "maximally-mixed", "bell-pair",
                            "classical-pair"))
    p.add_argument("--d", type=int, default=2,
                   help="dimension for --state maximally-mixed (default: 2)")

    p = sub.add_parser("carnot", help="remote two-reservoir Carnot ledger")
    _add_run_flags(p)
    p.add_argument("--t-low", type=float, required=True, dest="t_low")
    p.add_argument("--t-high", type=float, required=True, dest="t_high")

    proto = sub.add_parser("protocol", help="run a distribution protocol")
    psub = proto.add_subparsers(dest="which", required=True, metavar="NAME")
    p = psub.add_parser("bell", help="Bell-pair distribution")
    _add_run_flags(p, *_THERMAL)
    p.add_argument("--intercept", action="store_true",
                   help="let an interceptor grab the flying qubit")
    p = psub.add_parser("classical", help="classically correlated pair benchmark")
    _add_run_flags(p, *_THERMAL)
    p = psub.add_parser("ghz", help="GHZ broadcast unlocking")
    _add_run_flags(p, *_THERMAL, "--capacity")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--initiator", type=int, default=0)
    p = psub.add_parser("parity", help="even-parity sharing")
    _add_run_flags(p, *_THERMAL, "--capacity", "--seed")
    p.set_defaults(units=None, temperature=None, seed=None)  # so run can tell a given flag
    p.add_argument("--n", type=int, default=3)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--reveal", action="append", metavar="INDEX:BIT",
                      help="announce a measurement outcome (repeatable)")
    mode.add_argument("--trials", type=int, default=20,
                      help="random channels for the no-information check (default: 20)")

    p = sub.add_parser("holevo", help="Holevo communication bound of an alphabet")
    _add_run_flags(p)
    p.add_argument("--alphabet", required=True, help="alphabet JSON file")

    p = sub.add_parser("tradeoff", help="energy/communication tradeoff of an alphabet")
    _add_run_flags(p, "--capacity", output=("json", "csv", "pretty"))
    p.add_argument("--alphabet", required=True, help="alphabet JSON file")
    p.add_argument("--block", type=int, default=0,
                   help="also sweep blocked super-letters up to this length")

    p = sub.add_parser("typical", help="typical-subspace census of a qubit source")
    _add_run_flags(p)
    p.add_argument("--p", type=float, required=True,
                   help="ground-state weight of the diagonal source")
    p.add_argument("--L", type=int, required=True, help="block length")
    p.add_argument("--delta", type=float, required=True, help="typicality width")

    p = sub.add_parser("refactor", help="refactorization energy ledger for a block")
    _add_run_flags(p, *_THERMAL, "--capacity")
    p.add_argument("--alphabet", required=True, help="alphabet JSON file")
    p.add_argument("--L", type=int, required=True, help="block length")
    p.add_argument("--delta", type=float, required=True, help="typicality width")

    p = sub.add_parser("verify", help="run the acceptance checks")
    _add_run_flags(p, "--seed")

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "which", None) == "parity":  # each mode refuses the flags it does not read
            unread = ("--seed",) if args.reveal else _THERMAL
            if given := [flag for flag in unread if getattr(args, flag[2:]) is not None]:
                parser.error(f"unrecognized arguments: {' '.join(given)}")
            for flag in (*_THERMAL, "--seed"):
                if getattr(args, flag[2:]) is None:
                    setattr(args, flag[2:], _RUN_FLAGS[flag]["default"])
    except SystemExit as exc:
        return int(exc.code or 0)
    # --capacity is the cap for this run alone; max_dimension reads it
    token = _CAPACITY.set(getattr(args, "capacity", None))
    try:
        # natural units where the subcommand offers no thermal flags
        ctx = ThermalContext(**{k: v for k, v in vars(args).items()
                                if k in ("temperature", "units")})
        if hasattr(args, "capacity"):
            max_dimension()  # an invalid cap is refused before any handler runs
        report, csv_table = _HANDLERS[args.command](args, ctx)
        _emit(report, args.output, ctx.energy_unit, csv_table)
    except (CapacityError, MemoryError) as exc:
        sys.stderr.write(f"qihe: capacity error: {exc}\n")
        return 3
    except (ValidationError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"qihe: validation error: {exc}\n")
        return 2
    finally:
        _CAPACITY.reset(token)
    if args.command == "verify" and not report.get("all_passed", False):
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
