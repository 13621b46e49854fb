"""One set-up pass, run as a fresh process: import qmp.cli, then write the
workload's input trajectories into OUT.

    python3 perfbench/make_inputs.py WORKLOAD SEED OUT

Prints {"import_s": ...}, the time this fresh interpreter spent on
`import qmp.cli`, one of the samples run.py reports as import_s.
"""

import time

_t0 = time.perf_counter()
import qmp.cli  # noqa: E402,F401  (timed: the fixed cost every command pays)

_import_s = time.perf_counter() - _t0

import json  # noqa: E402
import sys  # noqa: E402

import scenarios as S  # noqa: E402


if __name__ == "__main__":
    S.write_inputs(sys.argv[1], S.params(int(sys.argv[2])), sys.argv[3])
    print(json.dumps({"import_s": _import_s}))
