"""Set-up probe, run in a fresh interpreter by the benchmark.

Imports the package, builds the full catalog and parses one workload's
variant list, then prints the times of the import and of the catalog build
as one JSON line.

Usage: python3 bench/setup_child.py <src-dir> <variant-list>
"""

import json
import sys
import time


def main() -> None:
    src, variant_list = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import bbbounds.cli  # noqa: F401  (the whole package, as the CLI loads it)
    import bbbounds

    t1 = time.perf_counter()
    bbbounds.full_catalog()
    t2 = time.perf_counter()
    bbbounds.parse_variant_list(variant_list)
    print(json.dumps({"import_s": t1 - t0, "catalog_s": t2 - t1}))


if __name__ == "__main__":
    main()
