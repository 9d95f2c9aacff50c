"""Write ``pins.json``: the pinned outcome of each workload and seed.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py

For every workload and every seed in ``PINNED_SEEDS`` it runs the
workload once, checks it, and records its virtual time to completion
(``sim_ttc_s``, bit-exact), its final-state counts and the sha256 of its
generated inputs.  ``run.py`` then requires every later run of a pinned
seed to reproduce all three.  Re-pin only for a deliberate change of the
simulated behaviour or of the inputs, and say so in the change.
"""

from __future__ import annotations

import json

import run

#: The seeds whose outcome is pinned.
PINNED_SEEDS = range(20)


def main() -> int:
    pins: dict = {}
    for workload in run.WORKLOADS:
        pins[workload] = {}
        for seed in PINNED_SEEDS:
            result = run.spawn("timed", workload, seed)
            errors = run.verify(workload, seed, result, {})
            if errors:
                raise SystemExit("\n".join(errors))
            pins[workload][str(seed)] = {
                "sim_ttc_s": result["sim_ttc_s"],
                "states": result["states"],
                "digest": result["digest"],
            }
            print(f"{workload} seed {seed}: {result['sim_ttc_s']!r}")
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.PINS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
