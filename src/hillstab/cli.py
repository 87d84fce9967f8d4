"""Command-line surface: spectra, certificates, constants tables, witness
generation, zero structures, discriminant charts, and nonlinear probing.

All JSON outputs embed a run manifest (command, inputs, parameters,
tolerances, tool version) so artifacts are reproducible.  Exit codes:
0 success, 1 any other ``HillstabError`` (for example ``witness a-eps
--eps 10``, or a quadrature that cannot meet its tolerance), 2 parse error,
bad option value, an option the command does not read, or a malformed or
over-nested document, 3 root-search or integration failure, 4 a
``--verify`` pass found a certificate contradicted by the ground truth: the
edge counts, how many band edges lie below mu = 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from . import coeff as cf
from . import constants as cn
from . import floquet as fq
from . import lyapunov as ly
from . import nonlinear as nl
from . import settings
from . import witness as wt
from . import zeros as zr
from .errors import (HillstabError, IntegrationFailure, NoConvergence,
                     ParseError, RootSearchFailure)

EXIT_PARSE = 2
EXIT_SEARCH = 3
EXIT_SOUNDNESS = 4


def _manifest(args) -> dict:
    """The command the parser chose, its input file and every option set."""
    given = {k: v for k, v in vars(args).items()
             if k != "func" and v is not None}
    return {
        "command": " ".join(given[k] for k in ("subcommand", "family",
                                                "action") if k in given),
        "inputs": [given[k] for k in ("coeff_file", "problem_file")
                   if k in given],
        "parameters": given,
        "tool_version": __version__,
        "tolerances": dataclasses.asdict(settings.current()),
    }


def _load_coefficient(args) -> cf.PeriodicCoefficient:
    with open(args.coeff_file) as fh:
        doc = cf.parse_json(fh.read())
    if not isinstance(doc, dict):
        raise ParseError("a coefficient document is a JSON object")
    if args.period_override is not None:
        if "period" in doc:
            raise ParseError(
                "--period-override conflicts with a file that sets 'period'")
        doc["period"] = args.period_override
    return cf.PeriodicCoefficient.from_dict(doc)


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write(text: str, args):
    """Write text to the --output file, or to stdout without one."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, args):
    """Write doc and the run's manifest as JSON."""
    doc["manifest"] = _manifest(args)
    _write(json.dumps(doc, indent=2, sort_keys=True, default=_json_default)
           + "\n", args)


def _emit_csv(header: list, rows: list, args):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _write(buf.getvalue(), args)


# -- subcommands --------------------------------------------------------------

def cmd_eigs(args) -> int:
    a = _load_coefficient(args)
    s = fq.spectrum(a, None if args.bc == "antiperiodic" else args.count,
                    None if args.bc == "periodic" else args.count)
    interlace_ok = True
    if s.periodic and s.antiperiodic:
        interlace_ok, _ = fq.check_interlacing(s)
    _emit({"periodic": [e._asdict() for e in s.periodic],
           "antiperiodic": [e._asdict() for e in s.antiperiodic],
           "interlacing_ok": interlace_ok}, args)
    return 0


def _conclusion_confirmed(a, cert, count) -> bool:
    """Ground-truth check of one holds=true certificate's conclusion, where
    count(mu) is edge_count(a, mu): E(mu) band edges lie below mu."""
    n, tid = cert.n_or_p or 0, cert.theorem_id
    # edges j and j + 1 of a kind bracket 0, with 1e-6 of slack in mu:
    # lam_2n and lam_2n+1, alam_2n and alam_2n+1, lam_0 and lam_1
    kind_j = {"L1_PERIODIC_N": ("periodic", 2 * n),
              "L1_ANTIPERIODIC_N": ("antiperiodic", 2 * n),
              "LINF_PERIODIC": ("periodic", 0)}.get(tid)
    if kind_j:
        kind, j = kind_j
        return count(1e-6)[0] > fq.chain_position(kind, j) and \
            count(-1e-6)[0] <= fq.chain_position(kind, j + 1)
    E, d = count(0.0)
    if tid == "CLASSICAL_16T":
        return abs(d - 2.0) > 1e-9
    # L1_ZONE_KP: 0 in a stability zone; LINF_FIRST_ZONE: in zone 0
    return fq.band(d) == "Stable" and (tid == "L1_ZONE_KP" or E == 1)


def _verification(a, certs) -> list[dict]:
    """The --verify list: one check per holds=true certificate, then, if
    there is one, where mu = 0 lies, from at most three edge counts."""
    count = functools.cache(functools.partial(fq.edge_count, a))
    checks = [{"theorem_id": c.theorem_id, "n_or_p": c.n_or_p,
               "confirmed": _conclusion_confirmed(a, c, count)}
              for c in certs if c.holds]
    if checks:
        E, d = count(0.0)
        checks.append({"mu": 0.0, "edges_below": E, "discriminant": d})
    return checks


def cmd_certify(args) -> int:
    a = _load_coefficient(args)
    n_list = [args.n] if args.n is not None else [1, 2, 3]
    theorems = [args.theorem] if args.theorem else None
    certs = ly.certify_all(a, n_list=n_list, theorems=theorems)
    doc = {"certificates": [c.to_dict() for c in certs]}
    if args.verify:
        doc["verification"] = _verification(a, certs)
    _emit(doc, args)
    return 0 if all(c.get("confirmed", True)
                    for c in doc.get("verification", [])) else EXIT_SOUNDNESS


def cmd_constants(args) -> int:
    records = [dataclasses.asdict(r)
               for r in cn.constants_table(args.n_max, args.period)]
    if args.format == "csv":
        _emit_csv(list(records[0]), [list(r.values()) for r in records], args)
    else:
        _emit({"rows": records}, args)
    return 0


def cmd_witness_a_eps(args) -> int:
    _emit(wt.make_a_eps(args.n, args.period, args.eps).to_dict(), args)
    return 0


def cmd_witness_two_step(args) -> int:
    _emit(wt.make_two_step(args.alpha, args.x0).to_dict(), args)
    return 0


def cmd_zeros(args) -> int:
    a = _load_coefficient(args)
    z = zr.extract_zero_structure(a, args.bc)
    doc = z.to_dict()
    if args.n is not None:
        if args.bc == "periodic":
            rep = zr.check_periodic_structure(z, args.n, a.period)
        else:
            rep = zr.check_antiperiodic_structure(z, args.n, a.period)
        sub = zr.subinterval_inequality(a, z, args.n)
        doc["checks"] = {"structure": rep.to_dict(),
                         "subinterval_chain_ok": sub["chain_ok"],
                         "cot_sum": sub["cot_sum"],
                         "total_distance": sub["total_distance"]}
    _emit(doc, args)
    return 0


def cmd_chart(args) -> int:
    """Delta and its band verdict at --points values of mu, as CSV: one
    discriminant call over the whole array of mu."""
    a = _load_coefficient(args)
    if not args.mu_from < args.mu_to:
        raise ParseError("--mu-from must be below --mu-to")
    if not math.isfinite(args.mu_to - args.mu_from):
        raise ParseError("--mu-to minus --mu-from overflows a float")
    mus = np.linspace(args.mu_from, args.mu_to, args.points)
    rows = [(mu, d, fq.band(d)) for mu, d in
            zip(mus.tolist(), fq.discriminant(a, mus).tolist())]
    _emit_csv(["mu", "discriminant", "verdict"], rows, args)
    return 0


def _load_problem(args) -> nl.NonlinearProblem:
    with open(args.problem_file) as fh:
        return nl.NonlinearProblem.from_json(fh.read())


def cmd_nonlinear_check(args) -> int:
    certs = nl.check_all(_load_problem(args), args.n)
    _emit({"certificates": [c.to_dict() for c in certs]}, args)
    return 0


def cmd_nonlinear_solve(args) -> int:
    r = nl.solve_periodic(_load_problem(args), starts=args.starts,
                          seed=args.seed)
    _emit({"unique": r.unique, "n_converged_starts": r.n_converged_starts,
           "solutions": [{"u0": s.u0, "du0": s.du0, "residual": s.residual}
                         for s in r.solutions]}, args)
    return 0


# -- argument parsing ---------------------------------------------------------

def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return integer


def _finite(positive: bool = False):
    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError("must be finite")
        if positive and not value > 0:
            raise argparse.ArgumentTypeError("must be positive")
        return value
    return number


def build_parser() -> argparse.ArgumentParser:
    """A parser per command, family and action, with the options it reads."""
    ap = argparse.ArgumentParser(
        prog="hillstab",
        description="Stability certification for u'' + (mu + a(x)) u = 0",
    )
    ap.add_argument("--period-override", type=_finite(), default=None,
                    help="period for coefficient files that omit it")
    ap.add_argument("--tol-quad", type=_finite(positive=True), default=None,
                    help="override the quadrature tolerance")
    ap.add_argument("--tol-root", type=_finite(positive=True), default=None,
                    help="override the root tolerance: band edges and zeros")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write here instead of to stdout")

    def command(sub, name, func, help):
        p = sub.add_parser(name, help=help, parents=[output])
        p.set_defaults(func=func)
        return p

    sub = ap.add_subparsers(dest="subcommand", required=True)
    p = command(sub, "eigs", cmd_eigs, "periodic/antiperiodic eigenvalues")
    p.add_argument("coeff_file")
    p.add_argument("--count", type=_int_at_least(1), default=5)
    p.add_argument("--bc", choices=["periodic", "antiperiodic", "both"],
                   default="both")

    p = command(sub, "certify", cmd_certify, "run the certification theorems")
    p.add_argument("coeff_file")
    p.add_argument("--n", type=_int_at_least(1), default=None)
    p.add_argument("--theorem", choices=ly.THEOREM_IDS, default=None)
    p.add_argument("--verify", action="store_true",
                   help="cross-check holds=true certificates against "
                        "edge counts at mu = 0; exit 4 on contradiction")

    p = command(sub, "constants", cmd_constants, "the optimal constants")
    p.add_argument("--n-max", type=_int_at_least(0), default=10)
    p.add_argument("--period", type=_finite(), default=2 * math.pi)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    witness = sub.add_parser("witness", help="an extremal coefficient file")
    family = witness.add_subparsers(dest="family", required=True)
    p = command(family, "a-eps", cmd_witness_a_eps, "the family a_eps")
    p.add_argument("--n", type=_int_at_least(1), default=1)
    p.add_argument("--period", type=_finite(), default=2 * math.pi)
    p.add_argument("--eps", type=_finite(), default=0.05)
    p = command(family, "two-step", cmd_witness_two_step,
                "the two-plateau potential on (0, pi)")
    p.add_argument("--alpha", type=_finite(), default=1.0)
    p.add_argument("--x0", type=_finite(), default=1.0)

    p = command(sub, "zeros", cmd_zeros, "zero structure of the kernel")
    p.add_argument("coeff_file")
    p.add_argument("--bc", choices=["periodic", "antiperiodic"],
                   default="periodic")
    p.add_argument("--n", type=_int_at_least(1), default=None,
                   help="also run the structure checks at this index")

    p = command(sub, "chart", cmd_chart, "discriminant sweep as CSV")
    p.add_argument("coeff_file")
    p.add_argument("--mu-from", type=_finite(), required=True)
    p.add_argument("--mu-to", type=_finite(), required=True)
    p.add_argument("--points", type=_int_at_least(1), default=601)

    nonlinear = sub.add_parser("nonlinear", help="nonlinear periodic BVPs")
    action = nonlinear.add_subparsers(dest="action", required=True)
    p = command(action, "check", cmd_nonlinear_check,
                "the uniqueness certificates its data allow")
    p.add_argument("problem_file")
    p.add_argument("--n", type=_int_at_least(1), default=None)
    p = command(action, "solve", cmd_nonlinear_solve, "Newton multistart")
    p.add_argument("problem_file")
    p.add_argument("--starts", type=_int_at_least(1), default=16)
    p.add_argument("--seed", type=int, default=0)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first main call and kept: parsing
    changes nothing in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with settings.use(quad=args.tol_quad, root=args.tol_root):
            return args.func(args)
    except (ParseError, UnicodeDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (RootSearchFailure, IntegrationFailure, NoConvergence) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEARCH
    except HillstabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
