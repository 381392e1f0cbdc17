"""One benchmark set-up in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR LOADERS_JSON

Times ``import protometric`` plus the public loaders for a workload's
inputs and prints the seconds. The parent pins the BLAS thread variables in
the environment this process inherits.
"""

import json
import sys
import time


def load_inputs(pm, loaders: dict) -> None:
    """The public loaders `setup_s` covers, for the inputs in `loaders`.

    Called through the defining modules so that a traced run sees them.
    """
    with open(loaders["taxonomy"], encoding="utf-8") as fh:
        tax = pm.taxonomy.parse_taxonomy(fh.read())
    pm.taxonomy.cost_matrix(tax)
    if "csv" in loaders:
        pm.data.load_csv(loaders["csv"], "label", tax)
    if "checkpoint" in loaders:
        pm.model.load_checkpoint(loaders["checkpoint"])


def main() -> None:
    src, loaders = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import protometric

    load_inputs(protometric, loaders)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
