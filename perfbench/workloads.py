"""The benchmark's three workloads: ``verify``, ``tables`` and ``towers``.

Each workload is a closed loop with one client.  ``setup`` imports the
package afresh, generates the inputs from the seed and warms up; ``op``
runs one operation and raises :class:`OpFailure` when its output is wrong.
The package only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "tables_digests.json"


class OpFailure(Exception):
    """An op finished but its output failed a check."""


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Workload:
    name = ""
    setup_reps = 3  # set-ups per run; setup_s is their median
    # ops run in this process (else in a child that times itself and hosts the tracer)
    in_process = True
    tail_level = 100.0  # the tail percentile reported as op_tail_ms (100 = maximum)
    calibration_rounds = 4  # reference-kernel rounds run between ops

    def __init__(self, root: Path):
        self.root = root
        self.mods: dict = {}

    def setup(self, seed: int):
        raise NotImplementedError

    def op(self, k: int, phase: int):
        raise NotImplementedError

    def install_tracer(self, tracer: spans.Tracer, out_dir: Path):
        tracer.install(self.mods)

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# verify: the CLI end to end, one fresh process per op
# ---------------------------------------------------------------------------


class VerifyWorkload(Workload):
    """``htgroth verify --max 12`` as a fresh child process per op.

    The input is fixed, so the seed changes nothing.  ``--seed`` and
    ``--suite`` are never passed: the CLI ignores them.  The child is
    ``verify_child.py``, which calls ``htgroth.cli.main`` as the entry point
    does while it samples the machine's speed; the op's time excludes the
    samples.
    """

    name = "verify"
    setup_reps = 5
    in_process = False
    calibration_rounds = 100  # only after an op that failed to report its timing
    SUITES = (
        "diagram-bullets-vs-hull",
        "se2-hij-round-trip",
        "endpoint-identity",
        "euler-master-established-shapes",
        "inclusion-exclusion",
    )
    EXPECTED_FLAG = [[2, 3], [2, 4], [3, 2], [4, 2]]

    def __init__(self, root: Path, max_n: int = 12, expected_flag=None):
        super().__init__(root)
        self.argv = ["verify", "--max", str(max_n)]
        self.expected_flag = self.EXPECTED_FLAG if expected_flag is None else expected_flag
        self.out_dir = root / ".perfbench_out"
        self.tracer: spans.Tracer | None = None

    def setup(self, seed: int):
        # what a CLI user pays before any work: the import of the package
        self.mods = spans.import_layers()
        env = {k: v for k, v in os.environ.items() if k != "HT_GROTH_THREADS"}
        env["PYTHONPATH"] = str(self.root / "src")
        self.env = env
        self.out_dir.mkdir(exist_ok=True)

    def install_tracer(self, tracer: spans.Tracer, out_dir: Path):
        self.tracer = tracer  # the child installs its own wrappers
        self.out_dir = out_dir

    def op(self, k: int, phase: int) -> tuple[float, float] | None:
        out = self.out_dir / f"verify-child-{phase}-{k}.json"
        traced = "1" if self.tracer is not None else "0"
        cmd = [sys.executable, str(HERE / "verify_child.py"), str(out), traced, *self.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=170
        )
        wall = time.perf_counter() - t0
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        out.unlink()
        if self.tracer is not None:
            self.tracer.merge(record["trace"], op=k)
        self.check(proc.returncode, proc.stdout)
        sampled = record["sampler"]
        if sampled["slowness"] is None:  # too short to sample: pair with a kernel run
            return None
        return wall - sampled["kernel_s"], sampled["slowness"]

    def check(self, returncode: int, stdout: str):
        if returncode != 0:
            raise OpFailure(f"verify exited {returncode}")
        lines = stdout.splitlines()
        passed = [line[5:] for line in lines if line.startswith("PASS ")]
        if sorted(passed) != sorted(self.SUITES) or len(lines) != len(self.SUITES) + 1:
            raise OpFailure(f"verify printed {lines!r}")
        flag = lines[-1].split(" ", 2)
        if len(flag) != 3 or flag[:2] != ["FLAG", "euler-oracle-open-configurations"]:
            raise OpFailure(f"no FLAG line: {lines[-1]!r}")
        try:
            flagged = json.loads(flag[2])
        except ValueError:
            flagged = None
        if flagged != self.expected_flag:
            raise OpFailure(f"FLAG changed: {flag[2]}")

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)


# ---------------------------------------------------------------------------
# tables: profile queries through cli.main in one long-lived session
# ---------------------------------------------------------------------------

UNIVERSE_SEED = 20261017
UNIVERSE_SIZE = 512
STREAM_LENGTH = 8 * 1024
EXTENSIONS = ("shriek", "intermediate")
MULT_FORMS = ("m{j}", "2*m{j}", "m{j}*dxi", "m{j}^2", "3*m{j}*n{j}")


def _established(s: int, t: int) -> bool:
    return s == 1 or t == 1 or s == t


def tables_universe() -> list[dict]:
    """The fixed pool of profile queries the ``tables`` stream draws from.

    Each profile has 1-4 entries of any shape s + t <= 8 (mostly on the
    line of ``pi``), a twist numerator in [-4, 4], a symbolic multiplicity
    and sometimes a marker; ``tails`` holds an optional opaque tail per
    entry, used by the Euler check only (the CLI's profile format has no
    tail field).  ``r`` lies in 1..max s*t.
    """
    rng = random.Random(UNIVERSE_SEED)
    universe = []
    for _ in range(UNIVERSE_SIZE):
        profile, tails = [], []
        for j in range(rng.randint(1, 4)):
            s = rng.randint(1, 7)
            t = rng.randint(1, 8 - s)
            item = {
                "s": s,
                "t": t,
                "cuspidal": "pi" if rng.random() < 0.85 else "rho",
                "mult": rng.choice(MULT_FORMS).format(j=j),
                "xi_numerator": rng.randint(-4, 4),
            }
            if rng.random() < 0.2:
                item["markers"] = ["nondegenerate-at-auxiliary-place"]
            profile.append(item)
            tails.append([f"tail{j}", rng.randint(0, 3)] if rng.random() < 0.4 else None)
        r = rng.randint(1, max(e["s"] * e["t"] for e in profile))
        universe.append({"profile": profile, "tails": tails, "r": r})
    return universe


def query_argv(item: dict, extension: str) -> list[str]:
    return [
        "cohomology",
        "--profile",
        json.dumps(item["profile"], sort_keys=True),
        "--pi",
        "pi",
        "--r",
        str(item["r"]),
        "--extension",
        extension,
    ]


def universe_sha256(universe: list[dict]) -> str:
    return hashlib.sha256(json.dumps(universe, sort_keys=True).encode()).hexdigest()


def run_cli(cli, argv: list[str]) -> str:
    """stdout of ``cli.main(argv)``; a nonzero exit raises OpFailure."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        raise OpFailure(f"cli exited {exc.code}") from None
    if code != 0:
        raise OpFailure(f"cli returned {code}")
    return buf.getvalue()


def load_digests(universe: list[dict]) -> list[list[str]]:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["universe_sha256"] != universe_sha256(universe):
        raise RuntimeError(f"{DIGESTS_FILE.name} was recorded for another query universe")
    return data["digests"]


class TablesWorkload(Workload):
    """A seeded stream of ``cohomology`` queries answered in-process."""

    name = "tables"
    tail_level = 99.0
    calibration_rounds = 2

    def __init__(self, root: Path, digests: list[list[str]] | None = None):
        super().__init__(root)
        self.reference = digests

    def setup(self, seed: int):
        mods = self.mods = spans.import_layers()
        self.universe = tables_universe()
        self.digests = load_digests(self.universe) if self.reference is None else self.reference
        seg, coh = mods["segments"], mods["cohomology"]
        self.pi = seg.CuspidalLabel("pi", g=1)
        rho = seg.CuspidalLabel("rho", g=1)
        self.argvs = [[query_argv(item, ext) for ext in EXTENSIONS] for item in self.universe]
        self.euler_profiles = []
        keys = set()
        for item in self.universe:
            entries = []
            for e, tail in zip(item["profile"], item["tails"]):
                label = seg.IrreducibleLabel((seg.OpaqueFactor(*tail),)) if tail else seg.IrreducibleLabel.unit()
                entries.append(
                    coh.ProfileEntry(
                        s=e["s"],
                        t=e["t"],
                        cuspidal=self.pi if e["cuspidal"] == "pi" else rho,
                        mult=mods["jsonio"].sym_from_json(e["mult"]),
                        xi=seg.half(e["xi_numerator"]),
                        tail=label,
                    )
                )
            euler = all(_established(e["s"], e["t"]) for e in item["profile"])
            self.euler_profiles.append(coh.SpectrumProfile(tuple(entries)) if euler else None)
            r = item["r"]
            for e in item["profile"]:
                if e["cuspidal"] == "pi":
                    top = e["s"] * e["t"] if euler else r
                    keys.update((e["s"], e["t"], rr) for rr in range(r, top + 1))
        # every 2 * 512 ops ask each profile once per extension, alternating
        # extensions, in a seeded order: the mix is the same for every seed
        rng = random.Random(seed)
        n = len(self.universe)
        self.stream = []
        while len(self.stream) < STREAM_LENGTH:
            for a, b in zip(rng.sample(range(n), n), rng.sample(range(n), n)):
                self.stream += [(a, 0), (b, 1)]
        # warm-up: every distinct (s, t, r) the stream can reach
        cuts = mods["jl_red"].rectangle_cuts
        for s, t, r in sorted(keys):
            cuts(self.pi, s, t, r)

    def op(self, k: int, phase: int):
        idx, ext = self.stream[k % STREAM_LENGTH]
        out = run_cli(self.mods["cli"], self.argvs[idx][ext])
        if hashlib.sha256(out.encode()).hexdigest() != self.digests[idx][ext]:
            raise OpFailure(f"digest mismatch on query {idx} ({EXTENSIONS[ext]})")
        profile = self.euler_profiles[idx]
        if profile is not None:
            coh, r = self.mods["cohomology"], self.universe[idx]["r"]
            lhs = coh.euler_intermediate_profile(profile, self.pi, r)
            if lhs != coh.euler_shriek_profile_expansion(profile, self.pi, r):
                raise OpFailure(f"Euler identity fails on query {idx}")


# ---------------------------------------------------------------------------
# towers: mod-l problems on fresh lift labels
# ---------------------------------------------------------------------------

PROBLEM_POOL = 4096


def tower_problem(rng: random.Random) -> dict:
    """One mod-l problem as plain data (labels are made when it runs)."""
    shapes = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            shapes.append((rng.randint(1, 4), 1, rng.randint(-2, 2)))
        else:
            shapes.append((1, rng.randint(1, 4), rng.randint(-2, 2)))
    factors = [
        (rng.choice("ab"), rng.randint(1, 2), rng.randint(1, 2), rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3))
    ]
    return {
        "u": rng.choice((-1, 0, 1)),
        "shapes": shapes,
        "mutate": (rng.randrange(len(shapes)), rng.choice((0, 1))),
        "torsion": [(rng.choice((0, 1)), rng.randint(1, 30)) for _ in range(2)],
        "factors": factors,
        "depth": rng.randint(1, 2),
    }


class TowersWorkload(Workload):
    """A seeded stream of mod-l problems over one fixed supercuspidal line."""

    name = "towers"
    tail_level = 95.0

    def setup(self, seed: int):
        mods = self.mods = spans.import_layers()
        seg, modl = mods["segments"], mods["modl"]
        self.sc = modl.SupercuspidalData(seg.CuspidalLabel("rho"), modl.FieldData(2, 7), 3)
        rng = random.Random(seed)
        self.problems = [tower_problem(rng) for _ in range(PROBLEM_POOL)]

    def op(self, k: int, phase: int):
        mods = self.mods
        seg, modl, coh, sym = mods["segments"], mods["modl"], mods["cohomology"], mods["symbolic"]
        spec = self.problems[k % PROBLEM_POOL]
        sc, u = self.sc, spec["u"]
        level = modl.TowerLevel(sc, u)
        # fresh lift labels, named as cuspidal_lifts names them, never seen before
        lift_a, lift_b = (
            modl.tower_cuspidal(level, id=f"{sc.label.id}[u={u}]#{phase}.{k}.{side}")
            for side in "ab"
        )
        lifts = {lift_a.id: level, lift_b.id: level}

        def profile(lift, mutated=None):
            return coh.SpectrumProfile(
                tuple(
                    coh.ProfileEntry(
                        s=s,
                        t=t,
                        cuspidal=lift,
                        mult=sym.atom("mutant" if j == mutated else f"c{j}"),
                        xi=seg.half(xn),
                    )
                    for j, (s, t, xn) in enumerate(spec["shapes"])
                )
            )

        prof_a, prof_b = profile(lift_a), profile(lift_b)
        mut_idx, mut_side = spec["mutate"]
        mut_a = profile(lift_a, mut_idx) if mut_side == 0 else prof_a
        mut_b = profile(lift_b, mut_idx) if mut_side == 1 else prof_b
        s_mut, t_mut, _ = spec["shapes"][mut_idx]
        max_units = max(s * t for s, t, _ in spec["shapes"])
        d = modl.tower_rank(level) * max_units
        for r, r_prime in modl.matched_strata(u, u, d, sc):
            args = (sc, u, u, r, r_prime, lift_a, lift_b, lifts)
            if not all(c.is_tautology() for c in coh.rl_hi_balance(prof_a, prof_b, *args)):
                raise OpFailure(f"matched profiles break balance at r={r}")
            broken = any(not c.holds() for c in coh.rl_hi_balance(mut_a, mut_b, *args))
            if s_mut + t_mut - 1 >= r and not broken:
                raise OpFailure(f"mutation invisible at r={r}")

        strata = range(1, max_units + 1)
        run_a = {r: coh.coh_shriek(prof_a, lift_a, r) for r in strata}
        run_b = {r: coh.coh_shriek(prof_b, lift_b, r) for r in strata}
        if not coh.conj2_predicate(run_a, run_b, lifts, lifts):
            raise OpFailure("conj2 predicate fails across lifts")

        for u_prime, d in spec["torsion"]:
            g_up = modl.tower_rank(modl.TowerLevel(sc, u_prime))
            for r_prime in range(1, d + 1):
                cert = coh.torsion_detect(d, sc, u_prime, r_prime)
                ok = cert.emitted == (r_prime * g_up <= d - sc.g)
                if cert.emitted:
                    ok = ok and cert.s - cert.r > cert.s_prime - r_prime
                    ok = ok and cert.shriek_degree == cert.s - cert.r
                    ok = ok and cert.star_degree == 1 - cert.shriek_degree
                if not ok:
                    raise OpFailure(f"torsion certificate wrong at d={d}, r'={r_prime}")

        jl_red = mods["jl_red"]
        elements = [
            seg.GrothElement.of(
                seg.label_of_multisegment(
                    seg.speh_st_multisegment(lift_a if line == "a" else lift_b, s, t).twist(
                        seg.half(shift)
                    ),
                    seg.KIND_FORMAL,
                )
            )
            for line, s, t, shift in spec["factors"]
        ]
        product = elements[0]
        for e in elements[1:]:
            product = seg.groth_product(product, e)
        depth = spec["depth"]
        lhs = jl_red.red_tau(lift_a, depth, product)
        rhs = seg.GrothElement.zero()
        for idx, element in enumerate(elements):
            term = jl_red.red_tau(lift_a, depth, element)
            for j, other in enumerate(elements):
                if j != idx:
                    term = seg.groth_product(term, other)
            rhs = rhs + term
        if lhs != rhs:
            raise OpFailure("red_tau breaks the Leibniz rule")


WORKLOADS = {w.name: w for w in (VerifyWorkload, TablesWorkload, TowersWorkload)}
