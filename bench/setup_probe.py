"""Measure the program's set-up time in a fresh process and print it in seconds.

Set-up is ``import unitforge`` plus the long-lived objects a workload
builds once (the cascade adapters, including the mock-table load).

Usage: python3 bench/setup_probe.py SRC_DIR WORKLOAD INPUTS_DIR CACHE_DIR
"""

import sys
import time

# (kind, endpoint) of the cascade adapters; "{inputs}" is the inputs directory
ADAPTERS = (("asr", "mock:{inputs}/asr_table.tsv"), ("mt", "exec:cat"),
            ("t2u", "mock:char_units"))


def main() -> None:
    start = time.perf_counter()
    src, workload, inputs, cache = sys.argv[1:5]
    sys.path.insert(0, src)
    import unitforge

    if workload == "relabel":
        for kind, endpoint in ADAPTERS:
            unitforge.make_adapter(kind, kind, endpoint.format(inputs=inputs), cache_dir=cache)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
