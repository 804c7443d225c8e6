"""Time one set-up of a workload in this fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR SCENARIO_FILE SEED

Set-up is importing fbsecsim, parsing the scenario and assembling its
world once: the same config run with its duration cut to 1 us, which
builds every device, network, block and flood schedule but simulates
almost nothing.  The reference kernel is timed right before and after
(see reference.py).  Prints {"setup_s": ..., "kernel_s": ...} as JSON,
with setup_s in measured host seconds and kernel_s the mean kernel time.
"""

import dataclasses
import json
import sys
import time

import reference


def main() -> None:
    src, path, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    reference.kernel()
    before = reference.time_kernel()
    start = time.perf_counter()
    sys.path.insert(0, src)
    from fbsecsim.config import parse_scenario_file
    from fbsecsim.scenario import run_scenario

    cfg = parse_scenario_file(path).with_seed(seed)
    run_scenario(dataclasses.replace(cfg, duration_s=1e-6), record_trace=False)
    setup_s = time.perf_counter() - start
    after = reference.time_kernel()
    print(json.dumps({"setup_s": setup_s, "kernel_s": (before + after) / 2}))


if __name__ == "__main__":
    main()
