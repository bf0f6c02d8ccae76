"""Set-up time a user pays on every CLI call, measured in a fresh process:
importing `trilie.cli` plus building the parser and the run configuration
of one invocation (`build_parser`, `make_config`, which parses the weight).
Prints the seconds taken, scaled to the host's nominal speed by host-speed
reference samples taken right after it (see hostspeed.py), then the raw
seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py report --format json --seed 0
"""

import sys
import time

start = time.perf_counter()
import trilie.cli as cli  # noqa: E402

cli.make_config(cli.build_parser().parse_args(sys.argv[1:]))
took = time.perf_counter() - start

from hostspeed import reference, scale  # noqa: E402

samples = [reference() for _ in range(40)][10:]
print(took * scale(samples), took)
