"""Command-line interface.

One binary, one subcommand per library entry point.  ``_COMMANDS`` declares
each subcommand once, with its handler, the names of its arguments and its
help text, and ``_ARGUMENTS`` declares each argument's flag and argparse
keywords once; :func:`build_parser` and :func:`main` both read these tables.
The parser is built once per process, on the first :func:`main` call, and
binds no stream: usage and help go to whatever ``sys.stderr`` and
``sys.stdout`` are at the time of each call.
Each handler takes the parsed argparse namespace, calls the library, which
checks every argument (n, t, m, the cap, input files), and returns its exit
status and its output, writing nothing.  The output is text, a JSON object,
or an iterable of text chunks, for the long listings of ``enumerate`` and
``idempotents``.  The ``enumerate`` handler runs the search and
checks every sink-0 family by naive composition before it returns; only the
conjugation of those families to the other sinks, their ranking and sorting,
one size class at a time, and the rendering are deferred to chunks made as
they are written, so neither the whole listing's string nor its families as
objects are held.  :func:`main` is the one place that writes command
output: it renders a JSON object with ``formats.dumps`` and writes
the chunks to stdout, or to ``--out``, which it opens only once every check
has passed, so a failed command leaves no file.  The CLI checks one argument
itself, before any handler runs: ``--annotate`` needs ``--format json``,
the only format that carries the annotations.  :func:`main` maps that
``ValueError``, and the library's ``ValueError`` or ``OSError``, to exit
status 2.
Exit status 0 on success or PASS, 1 on a verification FAIL, 2 on usage or
input errors, and 141 (128 + SIGPIPE), with nothing printed, when the reader
of stdout closes it before the output is written, as ``| head`` does.
Enumerating subcommands take ``--cap`` to lift the default enumeration cap,
up to the library's hard maximum.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from collections.abc import Iterable

from . import formats
from .enumeration import (
    enumerate_maximal_semilattices,
    extremal_clauses,
    max_size_semilattices,
    spectrum,
)
from .reduction import reduce_semilattice
from .semilattice import (
    Semilattice,
    collapse_semilattice,
    find_violation,
    is_boolean_lattice,
    is_maximal,
    natural_order,
    semilattice_of_size,
    transitivity_order,
    verify_semilattice,
)
from .transform import enumerate_idempotents

# A handler's exit status and output: text, a JSON object for `main` to dump,
# or text chunks for `main` to write one by one.
_Output = tuple[int, str | dict | Iterable[str]]


def _read_input(args: argparse.Namespace) -> formats.ParsedFile:
    if args.input_path == "-":
        text = sys.stdin.read()
    else:
        with open(args.input_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return formats.parse_transformations(text)


def _read_semilattice(args: argparse.Namespace) -> Semilattice:
    parsed = _read_input(args)
    return verify_semilattice(parsed.n, parsed.transformations)


def _annotations(s: Semilattice) -> dict:
    maximality = is_maximal(s)
    boolean = is_boolean_lattice(s)
    return {
        "is_maximal": maximality.is_maximal,
        "is_boolean": boolean.is_boolean,
        "atoms": [list(a.images) for a in boolean.atoms],
    }


def _render_semilattice(args: argparse.Namespace, s: Semilattice, t: int | None) -> _Output:
    if args.format == "json":
        annotations = _annotations(s) if args.annotate else None
        return 0, formats.semilattice_to_dict(s, annotations)
    return 0, formats.format_semilattice_text(s, t)


def _cmd_idempotents(args: argparse.Namespace) -> _Output:
    idems = enumerate_idempotents(args.n)
    if args.format == "json":
        return 0, formats.idempotents_to_json(args.n, idems)
    header = f"n={args.n} count={len(idems)}\n"
    return 0, itertools.chain((header,), (e.word() + "\n" for e in idems))


def _cmd_et(args: argparse.Namespace) -> _Output:
    return _render_semilattice(args, collapse_semilattice(args.n, args.t), args.t)


def _cmd_make_size(args: argparse.Namespace) -> _Output:
    s = semilattice_of_size(args.n, args.t, args.m)
    return _render_semilattice(args, s, args.t)


def _cmd_verify(args: argparse.Namespace) -> _Output:
    parsed = _read_input(args)
    violation = find_violation(parsed.n, parsed.transformations)
    if violation is None:
        size = len(set(parsed.transformations))
        if args.format == "json":
            return 0, {"valid": True, "n": parsed.n, "size": size}
        return 0, f"VALID n={parsed.n} size={size}\n"
    if args.format != "json":
        return 1, f"INVALID {violation.describe()}\n"
    payload = {
        "valid": False,
        "axiom": violation.axiom,
        "elements": [list(e.images) for e in violation.elements],
    }
    if violation.product is not None:
        payload["missing_product"] = list(violation.product.images)
    return 1, payload


def _cmd_maximal(args: argparse.Namespace) -> _Output:
    s = _read_semilattice(args)
    result = is_maximal(s)
    code = 0 if result.is_maximal else 1
    if args.format == "json":
        return code, {
            "maximal": result.is_maximal,
            "n": s.n,
            "size": len(s),
            "witness": None
            if result.witness is None
            else list(result.witness.images),
        }
    if result.is_maximal:
        return code, f"MAXIMAL n={s.n} size={len(s)}\n"
    return code, f"NOT-MAXIMAL extend-with: {result.witness.word()}\n"


def _cmd_reduce(args: argparse.Namespace) -> _Output:
    s = _read_semilattice(args)
    result = reduce_semilattice(s)
    if args.format == "json":
        return 0, formats.reduction_to_dict(result)
    return 0, formats.format_reduction_text(result)


def _cmd_order(args: argparse.Namespace) -> _Output:
    s = _read_semilattice(args)
    name = "transitivity" if args.transitivity else "natural"
    relation = transitivity_order(s) if args.transitivity else natural_order(s)
    if args.format == "json":
        return 0, formats.poset_to_dict(name, relation, s.n)
    return 0, formats.format_poset_text(name, relation, s.n)


def _cmd_enumerate(args: argparse.Namespace) -> _Output:
    listing = enumerate_maximal_semilattices(args.n, cap=args.cap)
    if args.format == "json":
        return 0, formats.listing_to_json(listing)
    return 0, formats.listing_to_text(listing)


def _cmd_spectrum(args: argparse.Namespace) -> _Output:
    report = spectrum(args.n, cap=args.cap)
    if args.format == "json":
        return 0, formats.spectrum_to_dict(report)
    if args.format == "csv":
        return 0, formats.spectrum_to_csv(report)
    return 0, formats.format_spectrum_text(report)


def _cmd_verify_theorem(args: argparse.Namespace) -> _Output:
    winners = max_size_semilattices(args.n, cap=args.cap)
    lines = []
    ok = True
    for holds, statement in extremal_clauses(args.n, winners):
        ok &= holds
        lines.append(f"{'PASS' if holds else 'FAIL'} {statement}")
    lines.append(f"RESULT {'PASS' if ok else 'FAIL'} n={args.n}")
    return 0 if ok else 1, "\n".join(lines) + "\n"


# Each argument once: name -> (flag, argparse keywords).
_ARGUMENTS = {
    "n": ("--n", {"type": int, "required": True}),
    "t": ("--t", {"type": int, "required": True}),
    "m": ("--m", {"type": int, "required": True}),
    "cap": ("--cap", {"type": int}),
    "in": ("--in", {"dest": "input_path", "required": True, "metavar": "FILE",
                    "help": "input file of image words ('-' for stdin)"}),
    "annotate": ("--annotate", {"action": "store_true"}),
    "transitivity": ("--transitivity", {"action": "store_true"}),
    "format": ("--format", {"choices": ("text", "json"), "default": "text"}),
    "format+csv": ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    "out": ("--out", {"dest": "output_path", "metavar": "FILE"}),
}

# Each subcommand once: name -> (handler, argument names in help order, help).
_COMMANDS = {
    "idempotents": (_cmd_idempotents, "n format out", "list all idempotents of T(n)"),
    "et": (_cmd_et, "n t annotate format out",
           "emit the maximal collapse semilattice with sink t"),
    "verify": (_cmd_verify, "in format out", "check the semilattice axioms on a file"),
    "maximal": (_cmd_maximal, "in format out",
                "maximality verdict with extending witness"),
    "reduce": (_cmd_reduce, "in format out",
               "anchor, redirect, and restrict to n-1 points"),
    "order": (_cmd_order, "in transitivity format out",
              "natural or point transitivity order"),
    "enumerate": (_cmd_enumerate, "n cap format out",
                  "all maximal subsemilattices of T(n)"),
    "spectrum": (_cmd_spectrum, "n cap format+csv out",
                 "histogram of maximal cardinalities"),
    "make-size": (_cmd_make_size, "n t m annotate format out",
                  "subsemilattice of the collapse family with exactly m elements"),
    "verify-theorem": (_cmd_verify_theorem, "n cap out",
                       "check the extremal claims at one n"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semilat",
        description="Construct, verify, reduce, and enumerate commuting "
        "idempotent families in finite full transformation semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, names, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names.split():
            flag, keywords = _ARGUMENTS[name]
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "annotate", False) and args.format != "json":
            raise ValueError("--annotate needs --format json")
        code, output = _COMMANDS[args.command][0](args)
        if isinstance(output, dict):
            output = formats.dumps(output)
        chunks = (output,) if isinstance(output, str) else output
        if args.output_path in (None, "-"):
            try:
                sys.stdout.writelines(chunks)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader has gone; stdout's flush at exit must not fail too
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 141
        else:
            with open(args.output_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
