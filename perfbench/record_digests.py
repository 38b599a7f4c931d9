"""Records perfbench/digests.json: the reference item hashes of every workload.

    PYTHONPATH=src python3 perfbench/record_digests.py

The sweep, large-cells and certificates results do not depend on the seed
(no seed is echoed into an item and every dimension is the generic one), so
their hashes apply to every seed.  The cross-check specs are drawn from the
seed, so its hashes apply to DEFAULT_SEED only.  Results that fail their
closed-form or cross-path check are refused rather than recorded.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    seed = workloads.DEFAULT_SEED
    out = {"default_seed": seed, "workloads": {}}
    for name in workloads.WORKLOADS:
        inputs = workloads.build_inputs(name, seed, jobs=1)
        items = workloads.canonical_items(name, workloads.run_pass(inputs))
        _, failed = workloads.check(name, seed, items, reference={})
        if failed:
            print(f"{name}: refusing to record failing items {failed[:10]}", file=sys.stderr)
            return 1
        out["workloads"][name] = {
            "seed": seed if name == "cross-check" else None,
            "digest": workloads.workload_digest(items),
            "items": {key: workloads.item_hash(items[key]) for key in sorted(items)},
        }
        print(f"{name}: {len(items)} items, digest {out['workloads'][name]['digest'][:16]}")
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
