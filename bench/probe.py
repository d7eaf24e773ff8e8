"""Set-up probe: a fresh interpreter imports the package, prepares one workload's inputs, and prints "ready".

    python3 bench/probe.py WORKLOAD SEED

run.py times it from process start to the "ready" line; that is one set-up sample.
"""

import sys


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    import workloads

    workloads.WORKLOADS[name].prepare(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
