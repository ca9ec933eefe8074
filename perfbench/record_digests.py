"""Record the reference output digests of the ``tables`` workload.

Usage (from the root of a checkout): ``python3 perfbench/record_digests.py``

Runs every query of the fixed ``tables`` universe through ``cli.main``,
once per extension, and writes the SHA-256 of each stdout to
``perfbench/tables_digests.json``.  Record only at a commit whose outputs
are known to be right: the ``tables`` workload fails every op whose output
differs from the recording.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cli = spans.import_layers()["cli"]
    universe = workloads.tables_universe()
    digests = [
        [
            hashlib.sha256(workloads.run_cli(cli, workloads.query_argv(item, ext)).encode()).hexdigest()
            for ext in workloads.EXTENSIONS
        ]
        for item in universe
    ]
    payload = {
        "universe_seed": workloads.UNIVERSE_SEED,
        "universe_size": workloads.UNIVERSE_SIZE,
        "universe_sha256": workloads.universe_sha256(universe),
        "extensions": list(workloads.EXTENSIONS),
        "digests": digests,
    }
    with open(workloads.DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0)
        fh.write("\n")
    print(f"wrote {len(digests)} x {len(workloads.EXTENSIONS)} digests to {workloads.DIGESTS_FILE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
