"""Drawn spectrum profiles, and the differential of the CLI's profile reader.

``cli._load_profile`` reads each profile entry in one pass and checks each
field's JSON type once, where it reads it; ``generic_load_profile`` below is
the reader it replaced, kept as it was as the slow reference: one
``_json_field`` call per field, each twist through ``half`` and the checked
``ProfileEntry``.  For each drawn profile both readers must give equal
entries (every field, the doubled twist ``xi2``, and for each id the one
label object their ``cuspidals`` dict holds for it, the one it held before
when the draw shares a dict as ``balance`` does) and leave that dict alike,
or raise the same error with the same text.

The draws are mostly well formed: 0-4 entries, each of any shape, on ids
the shared dict holds or does not, with or without ``mult``,
``xi_numerator`` and ``markers``.  Most entries then have one to three
fields left out or replaced by a value of another JSON type (bool, float,
null, list, object, a list of non-strings), by an int out of range, or,
for ``mult``, by a string that reads as no coefficient; an id with a blank,
``^``, ``*`` or ``+`` and no ``mult`` cannot name its default weight.  So an
entry often has several bad fields, and which error the reader reports is
drawn on every side.

Run as a script it needs neither pytest nor hypothesis, so it runs on every
supported Python:

    PYTHONPATH=src python tests/profile_oracle.py [draws] [seed]
"""

import json
import random
import sys

from htgroth import cli, cohomology, jsonio, segments
from htgroth.cli import _read_json
from htgroth.symbolic import atom_name, require_int

FIELDS = ("cuspidal", "markers", "mult", "s", "t", "xi_numerator")
IDS = ["pi", "pi", "rho", "rho[u=0]", "rho[u=1]", "ρ_1", "a b", "a+b", "a^2", "x*y", "", "7"]
MULTS = ["m", "2*m0", "m0*dxi", "m^2", "3*m1*n1", "-1*n", "μ", "1", "0", 1, -2, 0]
BAD_MULTS = ["", "m+", "m*", "m^", "2.5", "m - n", "a b", "+", "m^x", "1/2"]
MARKERS = [[], ["nondegenerate-at-auxiliary-place"], ["a", "b"], ["a", "a"]]
# a value of each JSON type; the lists of non-strings are what markers refuses
OTHER_TYPES = [True, False, 1.5, 0.0, None, [], [1], ["a", 2], [None], {}, {"s": 1}, "x", 3, -1, 0]


def _json_field(item: dict, key: str, kinds, default=None):
    """``item[key]``, or ``default`` when given and the key is absent, of the JSON types ``kinds``.

    An int must not be a bool: JSON ``true``/``false`` read as 1 and 0.
    """
    value = item[key] if default is None else item.get(key, default)
    if not isinstance(value, kinds):
        raise TypeError(f"{key} has the wrong JSON type: {value!r}")
    return require_int(key, value) if isinstance(value, int) else value


def generic_load_profile(
    source: str, cuspidals: dict[str, segments.CuspidalLabel]
) -> cohomology.SpectrumProfile:
    data = _read_json(source, "profile", list)
    entries = []
    try:
        for item in data:
            name = _json_field(item, "cuspidal", str)
            markers = _json_field(item, "markers", list, [])
            if not all(isinstance(marker, str) for marker in markers):
                raise TypeError(f"markers must be strings, not {markers!r}")
            cusp = cuspidals.get(name) or segments.CuspidalLabel(name)
            cuspidals[name] = cusp
            if "mult" in item:
                mult = jsonio.sym_from_json(_json_field(item, "mult", (int, str)))
            else:  # one atom, so an id with a blank, ^, * or + cannot name it: ValueError;
                # read like a written mult, so every query of the id shares one object
                mult = jsonio.sym_from_json(atom_name(f"m[{name}]"))
            entries.append(
                cohomology.ProfileEntry(
                    s=item["s"],
                    t=item["t"],
                    cuspidal=cusp,
                    mult=mult,
                    xi=segments.half(_json_field(item, "xi_numerator", int, 0)),
                    markers=frozenset(markers),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        missing = "missing field " if isinstance(exc, KeyError) else ""
        raise ValueError(f"bad profile entry: {missing}{exc}") from exc
    return cohomology.SpectrumProfile(tuple(entries))


def shared_cuspidals() -> dict:
    """The labels ``balance`` puts in the dict before it reads a profile: two tower lines of rank > 1."""
    return {name: segments.CuspidalLabel(name, g=g) for name, g in (("rho[u=0]", 2), ("rho[u=1]", 6))}


def _bad_value(rng: random.Random, key: str):
    if key == "mult" and rng.randrange(2):
        return rng.choice(BAD_MULTS)
    if key in ("s", "t", "xi_numerator") and rng.randrange(3) == 0:
        return rng.choice([0, -1, -7, 10**20])  # an int: out of range for s and t only
    return rng.choice(OTHER_TYPES)


def draw_entry(rng: random.Random) -> dict:
    """One entry: well formed, then with 0-3 of its fields left out or replaced."""
    s = rng.randint(1, 4)
    item = {"cuspidal": rng.choice(IDS), "s": s, "t": rng.randint(1, 5 - s)}
    if rng.randrange(4):
        item["mult"] = rng.choice(MULTS)
    if rng.randrange(2):
        item["xi_numerator"] = rng.randint(-9, 9)
    if rng.randrange(3) == 0:
        item["markers"] = rng.choice(MARKERS)
    for key in rng.sample(FIELDS, rng.choice([0, 0, 1, 1, 2, 3])):
        if rng.randrange(3) == 0:
            item.pop(key, None)
        else:
            item[key] = _bad_value(rng, key)
    keys = list(item)
    rng.shuffle(keys)  # the reader's order must not follow the text's
    return {key: item[key] for key in keys}


def draw_profile(rng: random.Random) -> list[dict]:
    return [draw_entry(rng) for _ in range(rng.choice([0, 1, 1, 2, 2, 3, 4]))]


def outcome(reader, source: str, cuspidals: dict):
    """("ok", the profile, the dict after) of a read, or ("error", its type and text, the dict after)."""
    try:
        profile = reader(source, cuspidals)
    except ValueError as exc:
        return ("error", type(exc), str(exc), list(cuspidals.items()))
    return ("ok", profile, list(cuspidals.items()))


def mismatch(source: str, shared: dict | None) -> str | None:
    """How the readers differ on ``source``, each given a copy of ``shared`` (or of {}), or None."""
    before = shared or {}
    fast = outcome(cli._load_profile, source, dict(before))
    slow = outcome(generic_load_profile, source, dict(before))
    if fast[0] != slow[0] or fast[0] == "error" and fast[1:3] != slow[1:3]:
        return f"fast: {fast[:3]!r}\n  slow: {slow[:3]!r}"
    if fast[-1] != slow[-1]:
        return f"the cuspidals dicts differ:\n  fast: {fast[-1]!r}\n  slow: {slow[-1]!r}"
    for (name, fast_label), (_, slow_label) in zip(fast[-1], slow[-1]):
        if (name in before) and not (fast_label is slow_label is before[name]):
            return f"the fast reader replaced the shared label of {name!r}"
    if fast[0] == "error":
        return None
    labels = dict(fast[-1])
    if len(fast[1].entries) != len(slow[1].entries):
        return f"fast: {fast[1]!r}\n  slow: {slow[1]!r}"
    for mine, theirs in zip(fast[1].entries, slow[1].entries):
        same = type(mine) is type(theirs) and mine == theirs and mine.xi2 == theirs.xi2
        if not same or type(mine.xi2) is not int:
            return f"entries differ:\n  fast: {mine!r} (xi2 {mine.xi2!r})\n  slow: {theirs!r}"
        if mine.cuspidal is not labels[mine.cuspidal.id]:
            return f"the entry on {mine.cuspidal.id!r} holds a label other than its id's one"
    return None


def summary(result) -> str:
    if result[0] == "ok":
        return "ok"
    text = result[2].removeprefix("bad profile entry: ")
    return "error: " + " ".join(text.split()[:2]).rstrip(":")


def main(draws: int = 2000, seed: int = 20261022) -> int:
    rng = random.Random(seed)
    kinds: dict = {}
    for _ in range(draws):
        source = json.dumps(draw_profile(rng), ensure_ascii=bool(rng.randrange(2)))
        shared = shared_cuspidals() if rng.randrange(2) else None
        found = mismatch(source, shared)
        if found is not None:
            print(f"MISMATCH {source}{' (shared cuspidals)' if shared else ''}\n  {found}")
            return 1
        kind = summary(outcome(generic_load_profile, source, dict(shared or {})))
        kinds[kind] = kinds.get(kind, 0) + 1
    outcomes = dict(sorted(kinds.items(), key=lambda kv: -kv[1]))
    print(f"Python {sys.version.split()[0]}: {draws} profiles, both readers equal; outcomes {outcomes}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*map(int, sys.argv[1:])))
