"""Command-line front end.

Subcommands cover the counting formulas, walk spectra, transforms,
regularity decompositions, the bootstrapping check, extremal reports,
and the acceptance suites.  Every command is deterministic for a fixed
argument vector: the acceptance suites' randomized corpora take their
generator from verify's --seed.

Exit codes: 0 success, 1 a checked claim failed, 2 usage or precondition
error, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import extremal, spectra, verify
from .budget import DEFAULT_ITEMS, DEFAULT_SECONDS, Budget
from .errors import BudgetExceeded, DomainError, LinfamError
from .families import (Family, measure_outside_junta,
                       quasiregular_implies_uncaptureable_check,
                       regularity_decompose)
from .fourier import DenseFunction, fast_transform, reduce_family
from .gf import prime_power
from .matspace import (agreement_dim, count_rank_d, count_subspaces_avoiding,
                       gaussian_binomial, m_qt, mat_from_literal, phi)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(items=args.budget_items, seconds=args.budget_seconds)


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{flag} needs a fraction, got {text!r}") from None


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


COUNT_PARAMS = {
    "gauss": ("m", "d"),
    "rank": ("n", "m", "d"),
    "mqt": ("n", "t"),
    "phi": ("m", "n", "t"),
    "avoid": ("n", "k", "d"),
}


def cmd_count(args: argparse.Namespace) -> int:
    kind, q = args.kind, args.q
    prime_power(q, _budget(args))
    for name in COUNT_PARAMS[kind]:
        if getattr(args, name) is None:
            raise DomainError(f"--{name} is required for --kind {kind}")
    if kind == "gauss":
        val = gaussian_binomial(args.m, args.d, q)
    elif kind == "rank":
        val = count_rank_d(args.n, args.m, args.d, q)
    elif kind == "mqt":
        val = m_qt(args.n, q, args.t)
    elif kind == "phi":
        val = phi(args.m, args.n, args.t, q)
    else:
        val = count_subspaces_avoiding(args.n, args.k, args.d, q)
    out = {"kind": kind, "q": q}
    for name in COUNT_PARAMS[kind]:
        out[name] = getattr(args, name)
    out["value"] = str(val) if isinstance(val, Fraction) else val
    print(json.dumps(out))
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    S = spectra.spectrum(args.q, args.m, args.n, args.t, _budget(args))
    print(S.to_json())
    return 0


def cmd_fourier(args: argparse.Namespace) -> int:
    if (args.function is None) == (args.family is None):
        raise DomainError("exactly one of --function or --family is required")
    if args.function is not None:
        f = DenseFunction.from_text(_read(args.function))
    else:
        f = reduce_family(Family.from_text(_read(args.family)))
    S = fast_transform(f, _budget(args))
    print(json.dumps({"q": f.field.q, "n": f.n, "m": f.m,
                      "spectrum": json.loads(S.to_json())}))
    return 0


def cmd_regularity(args: argparse.Namespace) -> int:
    F = Family.from_text(_read(args.family))
    eps = _fraction(args.eps, "--eps") if args.eps is not None else None
    J, log = regularity_decompose(F, args.r, args.s, eps=eps,
                                  budget=_budget(args))
    with open(args.out_junta, "w", encoding="utf-8") as fh:
        fh.write(J.to_json() + "\n")
    with open(args.out_log, "w", encoding="utf-8") as fh:
        fh.write(log.to_json() + "\n")
    mu_out = measure_outside_junta(F, J)
    print(json.dumps({
        "family_measure": str(F.measure()),
        "outside_measure": str(mu_out),
        "components": len(J.components),
        "good_leaves": sum(1 for nd in log.nodes if nd.status == "good"),
        "junta_file": args.out_junta,
        "log_file": args.out_log,
    }))
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    F = Family.from_text(_read(args.family))
    rep = quasiregular_implies_uncaptureable_check(
        F, args.b, args.N, _fraction(args.delta, "--delta"),
        _fraction(args.beta, "--beta"), _budget(args))
    wit = rep["witness"]
    print(json.dumps({
        "holds": rep["holds"],
        "mu": str(rep["mu"]),
        "beta": str(rep["beta"]),
        "beta_cap": str(rep["beta_cap"]),
        "witness": wit.to_dict() if wit is not None else None,
    }))
    return 0 if rep["holds"] else 1


def _exit_by_status(rep: dict) -> int:
    return 1 if rep.get("status") == "violated" else 0


def cmd_extremal(args: argparse.Namespace) -> int:
    claim, q = args.claim, args.q
    b = _budget(args)
    if claim in ("optimum", "canonical", "determinant", "derange") and args.t is None:
        raise DomainError(f"--t is required for --claim {claim}")
    if claim == "derange" and args.tau is None:
        raise DomainError("--tau is required for --claim derange")
    if claim == "optimum":
        rep = extremal.verify_extremal_bound(args.n, q, args.t, args.mode, b)
    elif claim == "canonical":
        size = extremal.canonical_family_size(args.n, q, args.t, b)
        want = m_qt(args.n, q, args.t)
        rep = {"claim": "fixed-prefix family size",
               "params": {"n": args.n, "q": q, "t": args.t},
               "value": str(size), "bound": str(want),
               "status": "confirmed" if size == want else "violated",
               "witness": []}
    elif claim == "singer":
        fam = extremal.singer_cycle(args.n, q, b)
        ms = sorted(fam.members, key=lambda M: M.index())
        clash = [(A, B) for i, A in enumerate(ms) for B in ms[i + 1:]
                 if agreement_dim(A, B) != 0]
        rep = {"claim": "cyclic zero-agreement family",
               "params": {"n": args.n, "q": q},
               "value": str(len(ms)), "bound": str(q ** args.n - 1),
               "status": ("confirmed" if not clash
                          and len(ms) == q ** args.n - 1 else "violated"),
               "witness": [A.to_literal() for pair in clash[:1] for A in pair]}
    elif claim == "determinant":
        _, rep = extremal.sl_family(args.n, q, args.t, b)
    else:
        tau = mat_from_literal(args.tau)
        # the count checks n, t and tau before fixed_prefix_dim reads them
        cnt = extremal.derangement_enumerate(args.n, q, args.t, tau)
        d = extremal.fixed_prefix_dim(tau, args.t)
        bound = extremal.derangement_bound(args.n, q, args.t, d)
        rep = {"claim": "near-agreement derangement count",
               "params": {"n": args.n, "q": q, "t": args.t, "d": d},
               "value": str(cnt), "bound": str(bound),
               "status": "confirmed" if cnt >= bound else "violated",
               "witness": [tau.to_literal()]}
    print(extremal.report_to_json(rep))
    return _exit_by_status(rep)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        ks = sorted(verify.CRITERIA)
    elif args.suite in verify.SUITES:
        ks = list(verify.SUITES[args.suite])
    else:
        raise DomainError(f"unknown suite {args.suite!r}")
    ok = True
    # budgets are per criterion: each numbered check gets a fresh clock
    for k in ks:
        rep = verify.run_criterion(k, seed=args.seed, budget=_budget(args))
        print(json.dumps(rep), flush=True)
        ok = ok and rep["pass"]
    print(json.dumps({"suite": args.suite, "criteria": len(ks), "pass": ok}))
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget-items", type=int, default=DEFAULT_ITEMS,
                        help="work item ceiling (default 2^28)")
    common.add_argument("--budget-seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall clock ceiling per run (default 600)")

    parser = argparse.ArgumentParser(
        prog="linfam",
        description="exact linear-map family calculations over small fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common],
                       help="closed-form counting formulas")
    p.add_argument("--kind", required=True, choices=sorted(COUNT_PARAMS))
    p.add_argument("--q", type=int, required=True)
    for name in ("n", "m", "t", "d", "k"):
        p.add_argument(f"--{name}", type=int)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("spectrum", parents=[common],
                       help="walk eigenvalues by dual rank")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fourier", parents=[common],
                       help="transform a table or a family indicator")
    p.add_argument("--function", help="dense function file")
    p.add_argument("--family", help="family file")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("regularity", parents=[common],
                       help="decompose a family into a junta plus residue")
    p.add_argument("--family", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--eps", help="uncapturability threshold, a fraction")
    p.add_argument("--out-junta", default="junta.json")
    p.add_argument("--out-log", default="decomposition_log.json")
    p.set_defaults(func=cmd_regularity)

    p = sub.add_parser("bootstrap", parents=[common],
                       help="quasiregular families evade low-complexity captures")
    p.add_argument("--family", required=True)
    p.add_argument("--b", type=int, required=True,
                   help="context complexity allowance")
    p.add_argument("--N", type=int, required=True,
                   help="capture complexity to rule out")
    p.add_argument("--delta", required=True, help="measure floor, a fraction")
    p.add_argument("--beta", required=True,
                   help="quasiregularity constant, a fraction")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("extremal", parents=[common],
                       help="construction sizes and optimality reports")
    p.add_argument("--claim", required=True,
                   choices=("optimum", "canonical", "singer", "determinant",
                            "derange"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--mode", default="exhaustive",
                   choices=("exhaustive", "sample", "spectral"))
    p.add_argument("--tau", help="matrix literal for the agreement target")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("verify", parents=[common],
                       help="run an acceptance suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized corpora (default 0)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (LinfamError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
