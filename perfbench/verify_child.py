"""Child process of the ``verify`` workload.

Usage: ``python3 perfbench/verify_child.py OUT.json TRACE verify --max 12``

Runs ``htgroth.cli.main`` on the arguments after ``TRACE`` exactly as the
``htgroth`` entry point does, while the reference kernel samples the
machine's speed from a timer signal (about 1 % of the time).  With
``TRACE`` = 1 it first installs the span wrappers.  Writes the samples
(and the spans and counters) to ``OUT.json`` for the parent and exits
with the CLI's code.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402  (the script's own directory is on sys.path)
import spans  # noqa: E402


def main(out: str, trace: bool, argv: list[str]) -> int:
    record = {}
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        if trace:
            tracer = spans.Tracer()
            mods = spans.import_layers()
            tracer.install(mods)
            tracer.begin_op(0)
            try:
                return mods["cli"].main(argv)
            finally:
                tracer.end_op()
                tracer.finish()
                record["trace"] = tracer.to_json()
        from htgroth.cli import main as cli_main

        return cli_main(argv)
    finally:
        sampler.stop()
        record["sampler"] = sampler.summary()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
