"""One fresh-process set-up, timed: import the CLI, parse and construct inputs.

Run by ``run.py`` as a child process; prints one JSON line with the
``RefClock`` nominal times ``import_s``, ``load_s`` and their sum
``nominal_s``.  Usage:

    python3 perfbench/setup_probe.py <workload> <input_dir>
"""

import json
import sys
import time
from pathlib import Path

import inputs
import refclock


def main(argv: list[str]) -> int:
    workload, directory = argv[1], Path(argv[2])
    with refclock.RefClock() as timer:
        cli = inputs.import_cli()
        inside, imported = sum(timer.inside), time.perf_counter()
        inputs.load(cli, workload, directory)
    import_own = imported - timer.started - inside
    scale = refclock.NOMINAL_CHUNK_S / timer.chunk_s
    print(json.dumps({
        "import_s": import_own * scale,
        "load_s": (timer.own_s - import_own) * scale,
        "nominal_s": timer.nominal_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
