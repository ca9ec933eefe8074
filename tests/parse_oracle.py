"""Generated argv for the CLI, and the differential of its two parses.

``cli._parse_args`` reads an argv of ``--opt value`` pairs itself, off the
options ``cli.COMMANDS`` declares for the subcommand that argv[0] names;
``_parser().parse_args`` is the full parse it must equal: the same ``vars``
of the namespace, or the same exit code with the same bytes on stdout and
stderr.  The argv are drawn from every option of every subcommand, read off
``COMMANDS`` (plus argparse's own ``-h``/``--help``), in the forms
``--opt value``, ``--opt=value``, abbreviated and ambiguous, without their
value, given twice (argparse keeps the last), mixed with the switches
``--division`` and ``-h``/``--help`` and their abbreviations, with
``--``, leftover arguments, an unknown or option-first head, and the empty
argv.  Int values include those only ``int`` itself settles (`` 3``, ``+3``,
``1_0``, an Arabic-Indic digit), so the reader's every fallback rule has
draws on both sides.

Run as a script it needs neither pytest nor hypothesis, so it runs on every
supported Python:

    PYTHONPATH=src python tests/parse_oracle.py [draws] [seed]
"""

import contextlib
import io
import random
import sys

from htgroth.cli import COMMANDS, _parse_args, _parser, _read_plain

# heads that name no subcommand: unknown, near misses, and options first
HEADS = ["", "nosuch", "Cohomology", "cohomolog", "-h", "--help", "--he", "--h", "-hx",
         "--help=x", "-x", "--bogus", "--", "-"]
INTS = ["0", "1", "2", "3", "-1", "-2", "12"] * 2 + ["x", "", "1.5", "-", " 3", "+3", "1_0", "٣", "3 "]
VALUES = INTS + ["1,3", ",", "m", "json", "shriek", "--", "-h", "--help", "[]",
                 '[{"s":2,"t":1,"cuspidal":"pi"}]', "{}", "ρ[u=0]", "a b", "--s=1"]
EXTRAS = ["extra", "--bogus", "--", "-h", "--he", "--t", "1", "-", "--s=2", "--u-", "--profile"]


def _options(name: str) -> list[tuple[tuple[str, ...], object]]:
    """(option strings, kind) of each option of the subcommand ``name``, its ``-h``/``--help`` first."""
    return [(("-h", "--help"), bool)] + [((flag,), kind) for flag, (kind, *_) in COMMANDS[name][1].items()]


def _value(rng: random.Random, kind) -> str:
    if isinstance(kind, tuple) and rng.randrange(6):
        return rng.choice(sorted(kind))
    if kind is int and rng.randrange(6):
        return rng.choice(INTS)
    return rng.choice(VALUES)


def _flag(rng: random.Random, flags: tuple[str, ...]) -> str:
    flag = rng.choice(flags)
    if flag.startswith("--") and len(flag) > 3 and rng.randrange(5) == 0:
        return flag[: rng.randrange(3, len(flag))]  # an abbreviation, maybe ambiguous
    return flag


def draw_argv(rng: random.Random) -> list[str]:
    """One argv: mostly a subcommand with most of its options, often well formed."""
    if rng.randrange(25) == 0:
        return []
    head = rng.choice(HEADS) if rng.randrange(8) == 0 else rng.choice(sorted(COMMANDS))
    argv = [head]
    options = _options(head if head in COMMANDS else rng.choice(sorted(COMMANDS)))
    rng.shuffle(options)
    for flags, kind in options + rng.sample(options, rng.choice([0] * 5 + [1, 2])):  # some twice
        if kind is bool:  # a switch: --help or --division
            if rng.randrange(2 if "--help" not in flags else 20) == 0:
                argv.append(_flag(rng, flags) + ("=x" if rng.randrange(6) == 0 else ""))
            continue
        if rng.randrange(15) == 0:
            continue  # left out, required or not
        flag, value, form = _flag(rng, flags), _value(rng, kind), rng.randrange(15)
        if form == 0:
            argv.append(flag)  # no value
        elif form < 3:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    for _ in range(rng.choice([0] * 6 + [1, 2])):
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(EXTRAS))
    return argv


def outcome(parse, argv: list[str]):
    """("ok", vars of the namespace) of a parse, or ("exit", its exit code)."""
    try:
        return ("ok", vars(parse(list(argv))))
    except SystemExit as exc:
        return ("exit", exc.code)


def both_parses(argv: list[str], captured) -> list[tuple]:
    """The outcome of the direct and of the full parse, each with ``captured()``, its (stdout, stderr)."""
    return [outcome(parse, argv) + tuple(captured()) for parse in (_parse_args, _parser().parse_args)]


def main(draws: int = 3000, seed: int = 20261019) -> int:
    rng = random.Random(seed)
    out, err = io.StringIO(), io.StringIO()

    def captured():
        texts = out.getvalue(), err.getvalue()
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        return texts

    kinds: dict = {}
    argvs = [[], ["-h"], ["--help"], ["cohomology", "--he"], ["red", "--"], ["verify", "--", "--max", "3"]]
    argvs += [draw_argv(rng) for _ in range(draws)]
    for argv in argvs:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            direct, full = both_parses(argv, captured)
        if direct != full:
            print(f"MISMATCH {argv!r}\n  direct: {direct!r}\n  full:   {full!r}")
            return 1
        kind = "ok" if full[0] == "ok" else f"exit {full[1]}"
        if _read_plain(argv) is not None:
            kind = "ok, read without argparse"
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"Python {sys.version.split()[0]}: {len(argvs)} argv, both parses equal; outcomes {kinds}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*map(int, sys.argv[1:])))
