"""Command-line surface: verify, enumerate, search, construct, decompositions, encode, decode.

Exit codes: 0 on success, 1 when a verification or check fails, 2 on
usage errors (unparseable input, infeasible request, bad checkpoint).
"""

import argparse
import sys
from pathlib import Path

from .codec import CodecError, decode, encode, write_listing
from .constructions import base_to_t, tt_to_base, verify_base, verify_t
from .core import TurynQuad, is_canonical, verify_tt
from .enumeration import (
    Decomposition,
    decompositions,
    enumerate_canonical,
    realizability_report,
)
from .search import SearchConfig, search

OK = 0
CHECK_FAILED = 1
USAGE_ERROR = 2


class InputError(ValueError):
    """Unparseable command input, reported with its source line."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_records(text: str, n: int | None) -> list[tuple[str, TurynQuad]]:
    """Quadruples from mixed input: hex codes, listing rows, or +- blocks.

    A group of four consecutive sign lines (+- only) forms one quadruple;
    any other nonempty line is either a bare hex code or an `index code`
    listing row, both of which need n to decode.
    """
    records: list[tuple[str, TurynQuad]] = []
    block: list[str] = []
    block_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) <= {"+", "-"}:
            if not block:
                block_line = lineno
            block.append(line)
            if len(block) == 4:
                try:
                    quad = TurynQuad.from_pm(*block)
                except ValueError as exc:
                    raise InputError(f"line {block_line}: {exc}") from exc
                if n is not None and len(quad.a) != n:
                    raise InputError(
                        f"line {block_line}: block has n={len(quad.a)}, expected {n}"
                    )
                records.append((f"line {block_line}", quad))
                block = []
            continue
        if block:
            raise InputError(
                f"line {lineno}: sign block interrupted after {len(block)} of 4 rows"
            )
        tokens = line.split()
        if len(tokens) == 2 and tokens[0].isdigit():
            code = tokens[1]
        elif len(tokens) == 1:
            code = tokens[0]
        else:
            raise InputError(f"line {lineno}: expected a code or an index/code pair")
        if n is None:
            raise InputError(f"line {lineno}: hex codes need --n")
        try:
            quad = decode(code, n)
        except CodecError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        records.append((code, quad))
    if block:
        raise InputError(f"line {block_line}: sign block has {len(block)} rows, expected 4")
    if not records:
        raise InputError("no records found in input")
    return records


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    records = _parse_records(_read_text(args.input), args.n)
    failed = 0
    for label, quad in records:
        ok = verify_tt(quad)
        canon = "yes" if ok and is_canonical(quad) else "no"
        print(f"{label}: valid={'yes' if ok else 'no'} canonical={canon} sums={quad.row_sums()}")
        failed += not ok
    if failed:
        print(f"{failed} of {len(records)} records failed")
        return CHECK_FAILED
    return OK


def cmd_enumerate(args) -> int:
    listing = enumerate_canonical(args.n, jobs=args.jobs)
    print(f"n={args.n}: {len(listing)} classes")
    _emit(listing.to_text(), args.out)
    return OK


_CONFIG_KEYS = {
    "n": int,
    "head_len": int,
    "stop_after": int,
    "squares": None,
}


def _parse_config(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not val:
            raise InputError(f"line {lineno}: expected key=value, got {line!r}")
        if key not in _CONFIG_KEYS:
            raise InputError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "squares":
                parts = [int(x) for x in val.replace(",", " ").split()]
                if len(parts) != 4:
                    raise ValueError("need four integers")
                values[key] = Decomposition(*parts)
            else:
                values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise InputError(f"line {lineno}: bad value for {key}: {exc}") from exc
    if "n" not in values:
        raise InputError("config must set n")
    return values


def cmd_search(args) -> int:
    if args.resume and not args.out:
        raise InputError("--resume needs --out: a checkpointed run writes its hits only there")
    values = _parse_config(_read_text(args.config))
    if args.stop_after is not None:
        values["stop_after"] = args.stop_after
    cfg = SearchConfig(**values)
    listing = search(
        cfg,
        jobs=args.jobs,
        checkpoint_path=args.resume,
        results_path=args.out if args.resume else None,
    )
    if cfg.squares is None:
        print(f"n={cfg.n}: {len(listing)} classes")
        header = f"n={cfg.n}"
    else:
        print(f"{cfg.describe()}: {len(listing)} found")
        header = f"search {cfg.describe()}"
    if args.resume:
        return OK  # search already appended hits to --out as they came in
    _emit(write_listing(list(enumerate(listing.codes, start=1)), header=header), args.out)
    return OK


def cmd_construct(args) -> int:
    if args.code:
        if args.n is None:
            raise InputError("--code needs --n")
        records = [(args.code, decode(args.code, args.n))]
    elif args.input:
        records = _parse_records(_read_text(args.input), args.n)
    else:
        raise InputError("construct needs an input file or --code")
    failed = 0
    for label, quad in records:
        print(f"# {label}")
        if not verify_tt(quad):
            print("verdict: input is not a valid quadruple")
            failed += 1
            continue
        bs = tt_to_base(quad)
        if args.target == "base":
            for row in (bs.p, bs.q, bs.r, bs.s):
                print(row)
            verdict = "valid" if verify_base(bs) else "INVALID"
            print(f"verdict: {verdict} base sequences, lengths {bs.lengths}")
        else:
            ts = base_to_t(bs)
            for row in ts.rows:
                print(row)
            verdict = "valid" if verify_t(ts) else "INVALID"
            print(f"verdict: {verdict} T-sequences, length {len(ts)}")
    return CHECK_FAILED if failed else OK


def cmd_decompositions(args) -> int:
    rows = decompositions(args.n)
    report = realizability_report(args.n, jobs=args.jobs) if args.check else None
    for dec in rows:
        line = f"{dec.a} {dec.b} {dec.c} {dec.d}"
        if report is not None:
            line += " realized" if report[dec] else " unrealized"
        print(line)
    return OK


def cmd_encode(args) -> int:
    records = _parse_records(_read_text(args.input), None)
    for _, quad in records:
        print(encode(quad, form=args.form))
    return OK


def cmd_decode(args) -> int:
    quad = decode(args.code, args.n, form=args.form)
    for row in (quad.a, quad.b, quad.c, quad.d):
        print(row)
    return OK


# The commands in `turynseq -h` order: name -> (help, handler, arguments), each
# argument one flag or name with its add_argument keywords.
_COMMANDS = {
    "verify": ("check quadruples from a file of codes or sign blocks", cmd_verify, (
        ("input", {"help": "input file, or - for stdin"}),
        ("--n", {"type": int, "help": "sequence length (required for hex codes)"}))),
    "enumerate": ("list all canonical representatives for one n", cmd_enumerate, (
        ("--n", {"type": int, "required": True}),
        ("--jobs", {"type": int, "default": 1}),
        ("--out", {"help": "write the listing to this file instead of stdout"}))),
    "search": ("run a configured two-phase search", cmd_search, (
        ("config", {"help": "key=value config file; omit squares= to sweep all"}),
        ("--jobs", {"type": int, "default": 1}),
        ("--out", {"help": "results listing file"}),
        ("--resume", {"metavar": "CHECKPOINT", "help": "checkpoint file to create or resume from"}),
        ("--stop-after", {"type": int, "help": "stop after this many hits"}))),
    "construct": ("derive base sequences or T-sequences from a quadruple", cmd_construct, (
        ("target", {"choices": ("base", "tseq")}),
        ("input", {"nargs": "?", "help": "input file of codes or sign blocks"}),
        ("--code", {"help": "single hex code instead of an input file"}),
        ("--n", {"type": int}))),
    "decompositions": ("ways to write 6n-2 as a^2+b^2+2c^2+2d^2", cmd_decompositions, (
        ("--n", {"type": int, "required": True}),
        ("--check", {"action": "store_true", "help": "mark each row realized/unrealized"}),
        ("--jobs", {"type": int, "default": 1}))),
    "encode": ("hex-encode sign blocks", cmd_encode, (
        ("input", {"help": "input file of +- blocks, or - for stdin"}),
        ("--form", {"choices": ("full", "compact"), "default": "full"}))),
    "decode": ("print the sign block for a hex code", cmd_decode, (
        ("code", {}),
        ("--n", {"type": int, "required": True}),
        ("--form", {"choices": ("full", "compact")}))),
}


def _build_parser(name=None) -> argparse.ArgumentParser:
    """The root parser with every command, or with only command `name` but all seven in usage."""
    description = "Verify, enumerate, search, and transform Turyn-type sequence quadruples."
    parser = argparse.ArgumentParser(prog="turynseq", description=description)
    metavar = "{" + ",".join(_COMMANDS) + "}" if name in _COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for cmd, (help_text, func, arguments) in _COMMANDS.items():
        if metavar is None or cmd == name:
            p = sub.add_parser(cmd, help=help_text)
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # InputError, CodecError, CheckpointError and FeasibilityError subclass ValueError.
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
