"""Command-line front end.

Exit codes: 0 success; 1 usage or I/O error; 2 validation error in a
taxonomy, spec, or trace; 3 monitor run that detected at least one exit
event under --fail-on-exit. Standard error carries diagnostics only: a
warning on the spec is one ``warning:`` line and does not change the exit
code. A reader that closes standard output early is not an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections.abc import Iterator

# only what main runs for every command; each cmd_* imports its own layers,
# so that a command loads no module it does not run
from .errors import OddspecError
from .specdsl import WellFormedSpec, check_spec, parse_spec, render_value, serialize_spec
from .taxonomy import _TAG_OF, _TYPE_TAGS, EnumType, Taxonomy, domain_cardinality, parse_taxonomy


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, or of standard input if the path is
    ``-``, decoded as they are read."""
    stdin = path == "-"
    name = "<stdin>" if stdin else path
    with open(sys.stdin.fileno() if stdin else path, encoding="utf-8", closefd=not stdin) as file:
        try:
            yield from file
        except UnicodeDecodeError as exc:
            try:
                # the decoder failed on exc.object, which ends where reading stopped
                at = f" at byte {file.buffer.tell() - len(exc.object) + exc.start}"
            except OSError:  # a pipe has no position
                at = ""
            raise OddspecError(f"{name}: not UTF-8 text ({exc.reason}{at})") from exc


def _read(path: str) -> str:
    return "".join(_lines(path))


def _drop_stdout() -> None:
    """Point fd 1 at devnull once the reader of standard output has gone, so
    that no later write, the interpreter's final flush included, fails."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _type_summary(attr_type) -> str:
    tag = _TAG_OF[type(attr_type)]
    if isinstance(attr_type, EnumType):
        labels = ", ".join(attr_type.labels)
        prefix = f"ordered {tag}" if attr_type.ordered else tag
        return f"{prefix}{{{labels}}}"
    parts = [tag]
    for key, field_name in _TYPE_TAGS[tag][1].items():
        value = getattr(attr_type, field_name)
        if value is not None:
            parts.append(value if key == "unit" else f"{key}={render_value(value)}")
    return " ".join(parts)


def cmd_validate(args, taxonomy: Taxonomy, spec: WellFormedSpec | None) -> int:
    odd_size = None
    if spec is not None:
        from .evaluator import count_odd

        odd_size = count_odd(taxonomy, spec)
    print(f"version: {taxonomy.version}")
    print(f"attributes: {len(taxonomy)}")
    for attribute in taxonomy.attributes:
        print(f"  {attribute.name}: {_type_summary(attribute.attr_type)}")
    size = domain_cardinality(taxonomy)
    print(f"cardinality: {'infinite' if size == math.inf else render_value(size)}")
    if odd_size is not None:
        print(f"odd cardinality: {render_value(odd_size)}")
    return 0


def cmd_check(args, taxonomy: Taxonomy, spec: WellFormedSpec) -> int:
    print(serialize_spec(spec.ast))
    print(f"mentioned attributes: {', '.join(sorted(spec.mentioned_attributes))}")
    return 0


def cmd_eval(args, taxonomy: Taxonomy, spec: WellFormedSpec) -> int:
    from .domain import parse_lod
    from .evaluator import diagnose

    record = args.lod if args.lod.lstrip().startswith("{") else _read(args.lod)
    lod = parse_lod(record, taxonomy)
    report = diagnose(spec, lod)
    print(f"verdict: {report.verdict.value}")
    for atom in report.falsified_atoms:
        print(f"falsified: {serialize_spec(atom)}")
    for atom in report.unknown_atoms:
        print(f"unknown: {serialize_spec(atom)}")
    return 0


# The widest int range whose texts a listing renders once and holds, as it
# does every label: a wider range may be too wide to hold, so it streams.
_HELD_WIDTH = 1024


class _Rendered:
    """The texts of an int range wider than ``_HELD_WIDTH``, rendered as
    they are iterated, so that a range of any width is never held."""

    def __init__(self, values: range):
        self.values = values

    def __iter__(self) -> Iterator[str]:
        return map(render_value, self.values)


def _listing(taxonomy: Taxonomy, spec: WellFormedSpec | None) -> Iterator[str]:
    """The lines of ``enumerate_od`` or ``enumerate_odd``: the same walk and
    the same product, over the values' texts, so that each admitted prefix
    is rendered once, and so is each value of a space no wider than
    ``_HELD_WIDTH``. The product runs over every position but the last, and
    each of its lines is completed with every text of the last one."""
    from .domain import _product, value_spaces

    spaces = value_spaces(taxonomy)
    if not spaces:
        yield "\n"  # the empty tuple; a checked spec has an atom, so there is none here
        return
    *texts, last = [
        # an int range has step 1, and len() overflows past sys.maxsize values
        _Rendered(space)
        if isinstance(space, range) and space.stop - space.start > _HELD_WIDTH
        else tuple(map(render_value, space))
        for space in spaces
    ]
    if spec is None:
        prefixes = [([], 0)]
    else:
        from .evaluator import _admitting_prefixes

        # main checked the spec against this taxonomy, which is enumerate_odd's first check
        prefixes = _admitting_prefixes(spec, spaces, range(len(spaces)))
    for values, depth in prefixes:
        head = ",".join(map(render_value, values[:depth]))
        if depth == len(spaces):
            yield head + "\n"
            continue
        if depth:
            head += ","
        for rest in _product(texts[depth:]):
            line = head + ",".join(rest) + "," if rest else head
            for text in last:
                yield line + text + "\n"


def cmd_enumerate(args, taxonomy: Taxonomy, spec: WellFormedSpec | None) -> int:
    sys.stdout.writelines(_listing(taxonomy, spec))
    return 0


def cmd_monitor(args, taxonomy: Taxonomy, spec: WellFormedSpec) -> int:
    from .domain import iter_trace
    from .evaluator import Verdict
    from .monitor import EventKind, _fold, monitor_init, render_report, report_from_state

    verdict_line = {verdict: f" verdict={verdict.value}\n" for verdict in Verdict}
    state = monitor_init(spec, taxonomy)
    # events are held only for a report; --fail-on-exit needs one flag
    events, exited = [], False
    write = sys.stdout.write
    for sample, verdict, step_events in _fold(state, iter_trace(_lines(args.trace), taxonomy)):
        if step_events:
            if args.report is not None:
                events.extend(step_events)
            exited = exited or any(event.kind is EventKind.EXIT for event in step_events)
        try:
            write(f"t={render_value(sample.t)}{verdict_line[verdict]}")
        except BrokenPipeError:
            # the status and the report describe the whole trace, so the fold goes on
            _drop_stdout()
    # built without --report too: it refuses a trace with no samples
    report = report_from_state(state, events)
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as file:
            # written as it is rendered, so the report's text is never held whole
            json.dump(render_report(report), file, indent=2)
            file.write("\n")
    if args.fail_on_exit and exited:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oddspec", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--taxonomy", required=True, metavar="PATH")

    validate = commands.add_parser("validate", parents=[common], help="validate a taxonomy file")
    validate.add_argument(
        "--spec", metavar="PATH", help="also count the tuples of the domain this spec admits"
    )
    validate.set_defaults(func=cmd_validate)

    check = commands.add_parser("check", parents=[common], help="check a spec against a taxonomy")
    check.add_argument("--spec", required=True, metavar="PATH")
    check.set_defaults(func=cmd_check)

    evaluate = commands.add_parser("eval", parents=[common], help="evaluate a spec on one sample")
    evaluate.add_argument("--spec", required=True, metavar="PATH")
    evaluate.add_argument(
        "--lod", required=True, metavar="PATH_OR_JSON",
        help="sample record: a path, or the record itself if it starts with '{'",
    )
    evaluate.set_defaults(func=cmd_eval)

    enumerate_ = commands.add_parser(
        "enumerate", parents=[common], help="list all domain tuples, optionally filtered by a spec"
    )
    enumerate_.add_argument("--spec", metavar="PATH")
    enumerate_.set_defaults(func=cmd_enumerate)

    monitor = commands.add_parser("monitor", parents=[common], help="monitor a drive trace")
    monitor.add_argument("--spec", required=True, metavar="PATH")
    monitor.add_argument(
        "--trace", required=True, metavar="PATH", help="trace file, or - for standard input"
    )
    monitor.add_argument("--report", metavar="PATH", help="write a JSON report here")
    monitor.add_argument(
        "--fail-on-exit", action="store_true",
        help="exit with status 3 if the trace ever goes outside the design domain",
    )
    monitor.set_defaults(func=cmd_monitor)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    status = 0
    try:
        # inputs load in one order for every command: taxonomy, spec, then its own
        taxonomy = parse_taxonomy(_read(args.taxonomy))
        # a warning on the spec is one diagnostic line, whatever the interpreter's filters
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = None if args.spec is None else check_spec(parse_spec(_read(args.spec)), taxonomy)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        status = args.func(args, taxonomy, spec)
        sys.stdout.flush()
    except BrokenPipeError:
        # a reader may take any prefix of the output, as `| head -3` does
        _drop_stdout()
    except OddspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


def run() -> None:
    sys.exit(main())
