"""Regenerate ``pinned.json``: each workload's outputs at the default seed.

Usage (from the repository root)::

    python3 perfbench/pin.py

Run it only when a change is meant to alter the program's outputs (a
bitstream, a PSNR, an SLO report or a score row); a speed-only change must
leave the file byte-identical.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HERE, load_program, normalized


def main() -> int:
    _spans, workloads, _fingerprint = load_program()
    pinned = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        inputs = workload.setup(DEFAULT_SEED)
        verdict = workload.check(inputs, workload.run(inputs).artifacts)
        if verdict.failed:
            print(f"error: {name} fails its oracle", file=sys.stderr)
            return 1
        pinned[name] = {"seed": DEFAULT_SEED, "outputs": normalized(verdict.outputs)}
        print(f"pinned {name}", file=sys.stderr)
    text = json.dumps(pinned, indent=1, sort_keys=True) + "\n"
    (HERE / "pinned.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
