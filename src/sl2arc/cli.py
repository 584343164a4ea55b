"""Command-line surface for the pipeline.

Subcommands:

  trace     compile a free-group word to its trace polynomial
  verify    run the exact family verification report for one n or a range
  arc       continue a representation arc and serialize it as CSV
  locus     continue an arc and write the holonomy-locus CSV (and SVG)
  interval  continue an arc and print the orderable-slope interval near 0

Exit codes: 0 success / all assertions pass, 1 verification failure,
2 usage error (an unwritable output path included), 3 numerical failure,
141 when the reader closes stdout early (as `| head` does): the status of a
process that SIGPIPE ends, with no error message.
All output is deterministic for a fixed flag set: no timestamps, no
environment lookups, stable ordering.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .arc import ContinuationError, GluingError, continue_arc
from .locus import (
    LocusError,
    csv_text,
    emit_csv,
    emit_svg,
    locus_points,
    orderable_interval,
)
from . import pretzel
from .pretzel import make_family, verify_lemma
from .tracepoly import trace_polynomial
from .words import WordSyntaxError, parse_word

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ends


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2arc",
        description="Trace polynomials, representation arcs, and holonomy loci.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="compile a word to a trace polynomial")
    p_trace.add_argument("--word", required=True,
                         help="free-group word over a, b (inverses A, B or ^-k)")

    p_verify = sub.add_parser("verify", help="verify the family assertions")
    p_verify.add_argument("--n", type=int, help="single family index (>= 1)")
    p_verify.add_argument("--range", dest="n_range", metavar="A..B",
                          help="inclusive index range, e.g. 1..50")
    p_verify.add_argument("--exact", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="rational arithmetic (default on for verify)")

    for name in ("arc", "locus", "interval"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, required=True, help="family index (>= 1)")
        p.add_argument("--steps", type=int, default=2000, help="max steps")
        p.add_argument("--step-size", dest="step_size", type=float, default=1e-3)
        p.add_argument("--direction", type=int, choices=(1, -1), default=1)
        p.add_argument("--ceiling", type=float, default=1e6,
                       help="meridian trace termination ceiling")
        if name == "arc":
            p.add_argument("--out", help="CSV path (stdout when omitted)")
        elif name == "locus":
            p.add_argument("--out", required=True, help="CSV path")
            p.add_argument("--svg", help="SVG path")
    return parser


def _cmd_trace(args) -> int:
    word = parse_word(args.word)
    print(trace_polynomial(word))
    return EXIT_OK


def _parse_range(text: str) -> tuple:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise _UsageError(f"malformed range {text!r}: expected A..B")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 1 or hi < lo or hi > pretzel.N_CAP:
        raise _UsageError(f"range {text!r} must satisfy 1 <= A <= B <= {pretzel.N_CAP}")
    return lo, hi


def _cmd_verify(args) -> int:
    if (args.n is None) == (args.n_range is None):
        raise _UsageError("verify needs exactly one of --n or --range")
    if args.n is not None:
        if args.n < 1:
            raise _UsageError(f"--n must be >= 1, got {args.n}")
        report = verify_lemma(args.n, exact=args.exact)
        print(report.text())
        return EXIT_OK if report.all_pass else EXIT_VERIFICATION
    lo, hi = _parse_range(args.n_range)
    all_ok = True
    for n in range(lo, hi + 1):
        report = verify_lemma(n, exact=args.exact)
        verdict = "PASS" if report.all_pass else "FAIL"
        print(f"n={n} {verdict} ({len(report.assertions)} assertions)")
        all_ok = all_ok and report.all_pass
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def _run_continuation(args):
    return continue_arc(make_family(args.n), step_size=args.step_size,
                        max_steps=args.steps, direction=args.direction,
                        trace_ceiling=args.ceiling)


def _cmd_arc(args) -> int:
    """arc and locus: the CSV on stdout without --out; otherwise the CSV file,
    the SVG file when --svg is given, and a summary line."""
    arc = _run_continuation(args)
    locus_arc = locus_points(arc)
    if args.out is None:
        sys.stdout.write(csv_text(arc, locus_arc))
        return EXIT_OK
    emit_csv(arc, locus_arc, args.out)
    if getattr(args, "svg", None) is not None:
        emit_svg(locus_arc, args.svg)
    print(f"samples={len(arc.samples)} accepted={len(locus_arc.first)} "
          f"termination={arc.termination_reason}")
    return EXIT_OK


def _cmd_interval(args) -> int:
    locus_arc = locus_points(_run_continuation(args))
    lo, hi = orderable_interval(locus_arc)
    print("interval: (%.6g, %.6g)" % (lo, hi))
    return EXIT_OK


_HANDLERS = {
    "trace": _cmd_trace,
    "verify": _cmd_verify,
    "arc": _cmd_arc,
    "locus": _cmd_arc,
    "interval": _cmd_interval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: no message, and stdout
        # goes to the null device so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ContinuationError, GluingError, LocusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (WordSyntaxError, _UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
