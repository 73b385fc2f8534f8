"""Command-line front end.

Subcommands:
    decompose POLY MATRIX.json   write a decomposition certificate
    verify CERT.json             independently re-check a certificate
    classify POLY N              probabilistic polynomial classification
    search-image POLY N          randomized witness search

Exit codes: 0 success, 1 verification failure, 2 parse/input error,
3 polynomial not generic, 4 search budget exhausted, 5 residual failure.
"""

import argparse
import math
import sys
from dataclasses import replace

from .config import CLASSIFY_SAMPLES, CLASSIFY_TOL, DEFAULT_BUDGET, DEFAULT_TOLS
from .errors import (
    BudgetExhaustedError,
    MatWaringError,
    NotGenericError,
    ParseError,
    PreconditionUnmetError,
)
from .freealg import classify, fro, parse
from .linalg import project_traceless
from .serialize import (
    dumps_canonical,
    load_json,
    matrix_from_json,
    matrix_to_json,
    save_certificate,
)
from .verify import check_certificate
from .waring import (
    GOAL_DISTINCT_EIGS,
    GOAL_MULTIPLICITY_HALF,
    GOAL_NONZERO_TRACE,
    five_term_express,
    image_search,
    two_term_applies,
    two_term_decompose,
    waring_express,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_GENERIC = 3
EXIT_BUDGET = 4
EXIT_RESIDUAL = 5

# the exit code of an error is that of the first entry whose classes match
_EXIT_CODES = (
    ((ParseError, OSError, ValueError, KeyError, OverflowError,
      PreconditionUnmetError), EXIT_PARSE),
    ((NotGenericError,), EXIT_NOT_GENERIC),
    ((BudgetExhaustedError,), EXIT_BUDGET),
    # ResidualTooLargeError and every other failure of the package
    ((MatWaringError,), EXIT_RESIDUAL),
)

_TOL_FLAGS = ("gap", "hollow", "split", "cert", "end")


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    for name in _TOL_FLAGS:
        parser.add_argument(f"--tol-{name}", type=float, default=None,
                            metavar="X", help=f"override {name}_tol")


def _tolerance(flag, value):
    """value, when it is a positive finite number; a tolerance of NaN or
    inf passes or fails every gate whatever it measures."""
    if not 0 < value < math.inf:
        raise ValueError(f"{flag} must be a positive finite number, "
                         f"got {value}")
    return value


def _tolerances(args):
    overrides = {}
    for name in _TOL_FLAGS:
        value = getattr(args, f"tol_{name}")
        if value is not None:
            overrides[f"{name}_tol"] = _tolerance(f"--tol-{name}", value)
    return replace(DEFAULT_TOLS, **overrides)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matwaring",
        description="Waring-type decompositions of matrices through "
                    "noncommutative polynomial images, with verifiable "
                    "certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a matrix through f")
    p.add_argument("poly", help="polynomial text, e.g. '[X1,X2]'")
    p.add_argument("matrix", help="target matrix JSON file")
    p.add_argument("--mode", choices=["four", "two", "five", "auto"],
                   default="auto")
    p.add_argument("--out", default="certificate.json")
    _add_common(p)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate")

    p = sub.add_parser("classify", help="classify a polynomial on M_n(C)")
    p.add_argument("poly")
    p.add_argument("n", type=int)
    p.add_argument("--samples", type=int, default=CLASSIFY_SAMPLES)
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search-image", help="find an image point meeting a goal")
    p.add_argument("poly")
    p.add_argument("n", type=int)
    p.add_argument("--goal",
                   choices=[GOAL_MULTIPLICITY_HALF, GOAL_DISTINCT_EIGS,
                            GOAL_NONZERO_TRACE],
                   default=GOAL_MULTIPLICITY_HALF)
    p.add_argument("--out", default="witness.json")
    _add_common(p)

    return parser


def cmd_decompose(args):
    tols = _tolerances(args)
    f = parse(args.poly)
    A = matrix_from_json(load_json(args.matrix))
    n = A.shape[0]

    mode = args.mode
    trace_mag = abs(complex(A.trace()))
    if mode != "five" and trace_mag > tols.hollow_tol * fro(A):
        if mode != "auto":
            print(f"error: mode {mode!r} needs a trace-zero target "
                  f"(trace magnitude {trace_mag:.3e})", file=sys.stderr)
            return EXIT_PARSE
        print(f"warning: target has trace {trace_mag:.3e}; "
              "projecting onto trace zero", file=sys.stderr)
        A = project_traceless(A)
    if mode == "auto":
        mode = "two" if two_term_applies(f, n) else "four"

    if mode == "two":
        cert = two_term_decompose(f, A, args.budget, args.seed, tols)
    elif mode == "five":
        cert = five_term_express(f, A, args.budget, args.seed, tols)
    else:
        cert = waring_express(f, A, args.budget, args.seed, tols)

    save_certificate(args.out, cert, tols)
    # the residual relative to ||A||_F, which a zero target does not have,
    # and the k of a target decomposed as 2^(-k D) A (see README)
    norm = fro(cert.target)
    accuracy = [f"residual {cert.residual:.3e}"]
    if norm > 0:
        accuracy.append(f"relative {cert.residual / norm:.3e}")
    if cert.k:
        accuracy.append(f"k = {cert.k}")
    print(f"{cert.mode} certificate written to {args.out} "
          f"({', '.join(accuracy)})")
    return EXIT_OK


def cmd_verify(args):
    doc = load_json(args.certificate)
    verdict = check_certificate(doc)
    if verdict.failures:
        print(f"FAIL: {verdict.failures[0]}")
        for extra in verdict.failures[1:]:
            print(f"      {extra}")
        return EXIT_VERIFY_FAILED
    print(f"OK: {doc['mode']} certificate verifies (n={verdict.n}, "
          f"residual {verdict.residual:.1e} <= {verdict.bound:.1e})")
    return EXIT_OK


def cmd_classify(args):
    tol = _tolerance("--tol", args.tol)
    f = parse(args.poly)
    verdict = classify(f, args.n, samples=args.samples, tol=tol,
                       seed=args.seed)
    print(f"{verdict.describe()} (n={verdict.n}, samples={verdict.samples}, "
          f"tol={verdict.tolerance:g})")
    return EXIT_OK


def cmd_search_image(args):
    tols = _tolerances(args)
    f = parse(args.poly)
    image, mats = image_search(f, args.n, args.goal, args.budget, args.seed,
                               tols)
    doc = {
        "format": "image-witness",
        "polynomial": f.text,
        "goal": args.goal,
        "seed": args.seed,
        "image": matrix_to_json(image),
        "args": [matrix_to_json(a) for a in mats],
    }
    with open(args.out, "w") as fh:
        fh.write(dumps_canonical(doc))
    print(f"witness written to {args.out}")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "decompose": cmd_decompose,
        "verify": cmd_verify,
        "classify": cmd_classify,
        "search-image": cmd_search_image,
    }
    try:
        return handlers[args.command](args)
    except tuple(c for classes, _ in _EXIT_CODES for c in classes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES
                    if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
