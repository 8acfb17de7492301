"""Set-up probe run in a fresh interpreter by ``run.py``.

Imports projfeas and builds one workload's inputs, then prints ``ready``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from workloads import WORKLOADS, load_projfeas

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]](load_projfeas(), int(sys.argv[2]))
    print("ready", flush=True)
