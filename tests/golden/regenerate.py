"""Recompute the golden pins and, only with ``--accept``, rewrite them.

    PYTHONPATH=src python -m tests.golden.regenerate            # show diff
    PYTHONPATH=src python -m tests.golden.regenerate --accept   # rewrite

A pin whose value changes is stamped with the current commit; an
unchanged pin keeps the commit that first produced it.  Rewriting a pin
is a deliberate output change: say so, with the new value, in the
change that does it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tests.golden.outputs import compute

PINS = Path(__file__).with_name("pins.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accept", action="store_true",
                        help="rewrite pins.json with the recomputed values")
    args = parser.parse_args(argv)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
        text=True, check=True,
    ).stdout.strip()
    changed = []
    for name, value in compute().items():
        old = pins.get(name)
        if old is not None and old["value"] == value:
            continue
        changed.append(name)
        pins[name] = {"commit": commit, "value": value}
        print(f"{name}: {json.dumps(old and old['value'])} -> {json.dumps(value)}")
    if not changed:
        print("every pin matches")
        return 0
    if not args.accept:
        print(f"{len(changed)} pin(s) differ; rerun with --accept to rewrite",
              file=sys.stderr)
        return 1
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"rewrote {len(changed)} pin(s) in {PINS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
