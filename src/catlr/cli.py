"""Command-line front door.

Exit codes: 0 success, 1 usage error, 2 data error (missing or malformed
files, invalid values, a stdout closed before the run), 141 (128 + SIGPIPE) when the reader of stdout
closes it early, as ``| head`` does, with nothing printed.  Plain-text numeric output uses 4 significant
digits; pass --format for the display convention or machine formats.
Output is undecorated text (NO_COLOR is trivially honored), written by
``_write`` alone as UTF-8 with "\n" line ends, to stdout or an --out file
alike, whatever the locale's encoding.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

# Each command imports the modules it runs when it runs: a call pays only
# for its own code.
from .model import FORMATS, INTERVAL_METHOD_NAMES, DataError, check_seed

TYPE_CHECKING = False  # typing costs a command ~4 ms to import, and annotations are strings
if TYPE_CHECKING:
    from typing import IO, Iterable

    from .engine import SmoothingPolicy


class _UsageError(Exception):
    pass


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4g}"


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
    raise _UsageError(f"argument --smoothing: invalid smoothing {text!r}: "
                      "expected 'none' or 'alpha=<positive number>'")


def _write(output: str | Iterable[bytes], out_path: str | None, out: IO[str]) -> None:
    """Write a command's output, text or UTF-8 pieces, as UTF-8 with "\n" line ends: to the file
    at ``out_path``, else to ``out``'s binary buffer, else (``io.StringIO`` has none) to ``out`` as
    text.  A file name that is not UTF-8, which names a study, is written as the bytes it was given."""
    pieces = (output.encode("utf-8", "surrogateescape"),) if isinstance(output, str) else output
    if out_path:
        with open(out_path, "wb") as handle:
            handle.writelines(pieces)
    elif out is None:  # Python's sys.stdout where fd 1 was closed, as by `catlr ... >&-`
        raise OSError("stdout is closed")
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
            f"{est.statement}\t{_fmt(est.lr)}\n" for est in full_table_lrs(table, args.smoothing)))
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


def _opt(flag, type=None, choices=None, default=None, required=False, dest=None, metavar=None, help=""):
    """One option of a command: what the parser reads and --help shows."""
    metavar = "{%s}" % ",".join(choices) if choices else metavar or flag[2:].upper()
    help = "required" if required else help or ("" if default is None else f"default: {default}")
    return SimpleNamespace(flag=flag, dest=dest or flag[2:], type=type, choices=choices, default=default,
                           required=required, metavar=metavar, help=help)


# command: (handler, summary, options), the one table that parses argv and renders --help
_COMMANDS = {
    "tally": (_cmd_tally, "tally raw evaluation records into a table", (
        _opt("--in", dest="infile", required=True, metavar="RECORDS_CSV"),
        _opt("--out", metavar="TABLE_CSV"))),
    "lr": (_cmd_lr, "likelihood ratios for every statement in a table", (
        _opt("--table", required=True, metavar="TABLE_CSV"),
        _opt("--smoothing", _smoothing_arg, default="none"),
        _opt("--format", choices=FORMATS))),
    "report": (_cmd_report, "render an LR table or a display-value summary", (
        _opt("--table", metavar="TABLE_CSV"),
        _opt("--summary", metavar="FIXTURE_CSV"),
        _opt("--format", choices=FORMATS, default="md"),
        _opt("--smoothing", _smoothing_arg, default="none"),
        _opt("--interval", choices=INTERVAL_METHOD_NAMES),
        _opt("--level", float, default=0.95),
        _opt("--seed", int, default=0, help="deprecated; ignored"),
        _opt("--out", metavar="OUT_FILE"))),
    "posterior": (_cmd_posterior, "posterior probability from prior and LR", (
        _opt("--prior", float, required=True), _opt("--lr", float, required=True))),
    "adjust": (_cmd_adjust, "hardest-fraction sensitivity adjustment", (
        _opt("--lr", float, required=True), _opt("--fraction", float, required=True))),
    "interval": (_cmd_interval, "uncertainty interval for one statement's LR", (
        _opt("--table", required=True, metavar="TABLE_CSV"),
        _opt("--statement", required=True),
        _opt("--method", choices=INTERVAL_METHOD_NAMES, required=True),
        _opt("--seed", int, default=0, help="deprecated; ignored"),
        _opt("--level", float, default=0.95),
        _opt("--alpha", float, default=0.5),
        _opt("--workers", int, default=1, help="deprecated; ignored"))),
    "simulate": (_cmd_simulate, "generate a synthetic study from a profile", (
        _opt("--profile", required=True, metavar="PROFILE_CFG"), _opt("--out", metavar="RECORDS_CSV"))),
}


def _help(command: str | None) -> str:
    """The --help text of ``command``, or of catlr itself when None."""
    if command is None:
        rows = "".join(f"\n  {name:<11}{summary}" for name, (_, summary, _) in _COMMANDS.items())
        return (f"usage: catlr [-h] {{{','.join(_COMMANDS)}}} ...\n\nLikelihood ratios for categorical "
                f"expert-witness statements, computed from\nperformance-study tallies.\n\ncommands:{rows}\n")
    _, summary, options = _COMMANDS[command]
    rows = "".join(f"\n  {o.flag + ' ' + o.metavar:<34}{o.help}".rstrip() for o in options)
    return (f"usage: catlr {command} [-h] [options]\n\n{summary}\n\n"
            f"options:\n  {'-h, --help':<34}show this help and exit{rows}\n")


def _parse(argv: list[str]):
    """(handler, its arguments) for ``argv``, the handler of --help returning the help.  An option
    reads as --name value, --name=value or a unique prefix (--tab); the last one given wins."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command, *tokens = argv
    if command in ("-h", "--help"):
        return lambda args: _help(None), SimpleNamespace()
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    func, _, options = _COMMANDS[command]
    by_flag = {**{option.flag: option for option in options}, "-h": None, "--help": None}
    values = {option.dest: option.default for option in options}
    extras, tokens = [], iter(tokens)
    for token in tokens:
        name, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        # no flag is a prefix of another, so an exact name is its own unique prefix
        found = [f for f in by_flag if f == name or name[:2] == "--" != name and f.startswith(name)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        if not found:
            extras.append(token)
            continue
        option = by_flag[found[0]]
        if option is None:  # -h or --help
            return lambda args: _help(command), SimpleNamespace()
        if not eq:  # the next token, unless it is option-like: "-", "-1" and "-.5" are values
            value = next(tokens, None)
            if value is None or value[:1] == "-" and value[1:2] not in "0123456789.":
                raise _UsageError(f"argument {option.flag}: expected one argument")
        try:
            values[option.dest] = option.type(value) if option.type else value
        except ValueError:
            raise _UsageError(f"argument {option.flag}: "
                              f"invalid {option.type.__name__} value: {value!r}") from None
        if option.choices and value not in option.choices:
            raise _UsageError(f"argument {option.flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, option.choices))})")
    missing = [option.flag for option in options if option.required and values[option.dest] is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    for option in options:  # a string default not given passes through its type last, as in argparse
        if values[option.dest] is option.default and isinstance(option.default, str) and option.type:
            values[option.dest] = option.type(option.default)
    return func, SimpleNamespace(**values)


def run(argv=None, stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse and execute; returns the exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        func, args = _parse(sys.argv[1:] if argv is None else list(argv))
        check_seed(getattr(args, "seed", 0))  # report and interval accept --seed and ignore it
        _write(func(args), getattr(args, "out", None), out)
        return 0
    except _UsageError as exc:
        message, code = f"usage error: {exc}", 1
    except BrokenPipeError:
        # the reader is gone, so is the rest of the output; stdout's unflushed
        # bytes go to devnull, so that the interpreter's last flush is silent
        if out is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return 141  # a shell's status for a process that SIGPIPE ended
    except (DataError, OSError) as exc:
        message, code = f"data error: {exc}", 2
    if err is not None:  # Python's sys.stderr where fd 2 was closed: print would fall back to stdout
        print(message, file=err)
    return code


def main() -> None:
    code = run()
    # the command is done and its files are closed: freezing every object it
    # and startup built spares them the collections of interpreter shutdown,
    # which still runs atexit hooks and flushes the std streams
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
