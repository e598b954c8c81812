"""Workload set-up, run in a fresh interpreter so that its time covers
``import seqdecomp`` as well as writing the inputs.

    python3 perfbench/prepare.py <workload> <seed> <workdir> [--smoke]

Writes the ``--factors`` files and, for ``replay``, decomposes the replayed
operators into plan files with ``seqdecomp decompose -o``.  Exits 0 on
success; the seqdecomp package must be importable (``src`` on PYTHONPATH).
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import seqdecomp.cli

import workloads


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    wl = workloads.build(name, seed, workdir, smoke="--smoke" in argv[3:])
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.write_factor_files(wl)
    for operator, path in wl.plans.items():
        argv = ["decompose", *wl.operator_args(operator), "-o", str(path)]
        with redirect_stdout(io.StringIO()):
            code = seqdecomp.cli.main(argv)
        if code != 0:
            print(f"prepare: {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
