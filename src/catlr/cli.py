"""Command-line front door.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, invalid values), 141 (128 + SIGPIPE) when the reader of stdout
closes it early, as ``| head`` does, with nothing printed.  Plain-text numeric output uses 4 significant
digits; pass --format for the display convention or machine formats.
Output is undecorated text (NO_COLOR is trivially honored), written by
``_write`` alone as UTF-8 with "\n" line ends, to stdout or an --out file
alike, whatever the locale's encoding.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import IO, TYPE_CHECKING, Iterable

# Each command imports the modules it runs when it runs: a call pays only
# for its own code, and only drawing commands load numpy.
from .model import FORMATS, INTERVAL_METHOD_NAMES, DataError, check_seed

if TYPE_CHECKING:
    from .engine import SmoothingPolicy


_BROKEN_PIPE = 141  # a shell's status for a process that SIGPIPE ended


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise _UsageError(message)


def _fmt(value: float | None) -> str:
    if value is None:
        return "undefined"
    if math.isinf(value):
        return "inf"
    return f"{value:.4g}"


def _smoothing_arg(text: str) -> SmoothingPolicy:
    from .engine import NO_SMOOTHING, SmoothingPolicy

    token = text.strip().lower()
    if token in ("none", "raw"):
        return NO_SMOOTHING
    if token.startswith("alpha="):
        try:
            return SmoothingPolicy.add_alpha(float(token[len("alpha="):]))
        except (ValueError, DataError):
            pass
    raise argparse.ArgumentTypeError(
        f"invalid smoothing {text!r}: expected 'none' or 'alpha=<positive number>'"
    )


def _write(output: str | Iterable[bytes], out_path: str | None, out: IO[str]) -> None:
    """Write a command's output, text or UTF-8 pieces, as UTF-8 with "\n" line ends.

    It goes to the file at ``out_path``, else to the binary buffer under
    ``out``, else (a text stream without one, such as ``io.StringIO``) to
    ``out`` as text.  A file name that is not UTF-8, which names a study,
    is written as the bytes it was given.
    """
    pieces = (output.encode("utf-8", "surrogateescape"),) if isinstance(output, str) else output
    if out_path:
        with open(out_path, "wb") as handle:
            handle.writelines(pieces)
    elif hasattr(out, "buffer"):
        out.flush()
        out.buffer.writelines(pieces)
        out.buffer.flush()  # a closed pipe raises here, not at interpreter exit
    else:
        out.writelines(piece.decode("utf-8", "surrogateescape") for piece in pieces)


def _cmd_tally(args):
    from .ingest import emit_aggregated
    from .records import tally_file

    return emit_aggregated(tally_file(args.infile))


def _cmd_lr(args):
    if args.format is None:
        from .engine import full_table_lrs
        from .ingest import use_table

        return use_table(args.table, lambda table: "".join(
            f"{est.statement}\t{_fmt(est.lr)}\n" for est in full_table_lrs(table, args.smoothing)
        ))
    from .report import build_report

    return build_report(args.table, args.format, args.smoothing)


def _cmd_report(args):
    from .ingest import _read_input
    from .report import build_report, check_report_options, read_display_fixture, render_summary_table

    options = (args.smoothing, args.interval, args.level)
    if args.summary:
        check_report_options(*options)  # as a table report does, though a summary has no interval
        if args.table:
            raise DataError("report takes --table or --summary, not both")
        headers, rows = _read_input(args.summary, read_display_fixture)
        return render_summary_table(rows, args.format, headers=headers)
    if not args.table:
        raise DataError("report needs --table or --summary")
    return build_report(args.table, args.format, *options)


def _cmd_posterior(args):
    from .interpret import posterior_probability

    return _fmt(posterior_probability(args.prior, args.lr)) + "\n"


def _cmd_adjust(args):
    from .interpret import hardness_adjust

    return _fmt(hardness_adjust(args.lr, args.fraction)) + "\n"


def _cmd_interval(args):
    from .ingest import use_table
    from .uncertainty import interval_of

    method = interval_of(args.method, args.level, args.alpha)
    interval = use_table(args.table, lambda table: method(table, args.statement))
    return f"{_fmt(interval.lower)}\t{_fmt(interval.upper)}\n"


def _cmd_simulate(args):
    from .ingest import _read_input
    from .simulate import _record_pieces, load_profile, simulate_study

    return _record_pieces(simulate_study(_read_input(args.profile, load_profile)))


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The catlr parser; given a ``command`` name, only that command's subparser.

    A parse that reaches a command's subparser prints the same help and
    errors either way: the other commands show only in the main parser's
    help and errors, which come from a parser with every command built.
    """
    parser = _Parser(
        prog="catlr",
        description=(
            "Likelihood ratios for categorical expert-witness statements, "
            "computed from performance-study tallies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, help=help) if command in (None, name) else None

    if p := add("tally", help="tally raw evaluation records into a table"):
        p.add_argument("--in", dest="infile", required=True, metavar="RECORDS_CSV")
        p.add_argument("--out", default=None, metavar="TABLE_CSV")
        p.set_defaults(func=_cmd_tally)

    if p := add("lr", help="likelihood ratios for every statement in a table"):
        p.add_argument("--table", required=True, metavar="TABLE_CSV")
        # argparse passes a string default through type=, so catlr.engine loads
        # only when a command that takes --smoothing is parsed
        p.add_argument("--smoothing", type=_smoothing_arg, default="none")
        p.add_argument("--format", choices=FORMATS, default=None)
        p.set_defaults(func=_cmd_lr)

    if p := add("report", help="render an LR table or a display-value summary"):
        p.add_argument("--table", default=None, metavar="TABLE_CSV")
        p.add_argument("--summary", default=None, metavar="FIXTURE_CSV")
        p.add_argument("--format", choices=FORMATS, default="md")
        p.add_argument("--smoothing", type=_smoothing_arg, default="none")
        p.add_argument("--interval", choices=INTERVAL_METHOD_NAMES, default=None)
        p.add_argument("--level", type=float, default=0.95)
        p.add_argument("--seed", type=int, default=0, help="deprecated; ignored")
        p.add_argument("--out", default=None, metavar="OUT_FILE")
        p.set_defaults(func=_cmd_report)

    if p := add("posterior", help="posterior probability from prior and LR"):
        p.add_argument("--prior", type=float, required=True)
        p.add_argument("--lr", type=float, required=True)
        p.set_defaults(func=_cmd_posterior)

    if p := add("adjust", help="hardest-fraction sensitivity adjustment"):
        p.add_argument("--lr", type=float, required=True)
        p.add_argument("--fraction", type=float, required=True)
        p.set_defaults(func=_cmd_adjust)

    if p := add("interval", help="uncertainty interval for one statement's LR"):
        p.add_argument("--table", required=True, metavar="TABLE_CSV")
        p.add_argument("--statement", required=True)
        p.add_argument("--method", choices=INTERVAL_METHOD_NAMES, required=True)
        p.add_argument("--seed", type=int, default=0, help="deprecated; ignored")
        p.add_argument("--level", type=float, default=0.95)
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--workers", type=int, default=1, help="deprecated; ignored")
        p.set_defaults(func=_cmd_interval)

    if p := add("simulate", help="generate a synthetic study from a profile"):
        p.add_argument("--profile", required=True, metavar="PROFILE_CFG")
        p.add_argument("--out", default=None, metavar="RECORDS_CSV")
        p.set_defaults(func=_cmd_simulate)

    if command is not None and command not in sub.choices:
        return build_parser()  # not a command name: help, or an error listing them all
    return parser


def run(argv=None, stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse and execute; returns the exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        check_seed(getattr(args, "seed", 0))  # report and interval accept --seed and ignore it
        _write(args.func(args), getattr(args, "out", None), out)
        return 0
    except BrokenPipeError:
        # the reader is gone, so is the rest of the output; stdout's unflushed
        # bytes go to devnull, so that the interpreter's last flush is silent
        if out is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return _BROKEN_PIPE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
