"""Fresh-interpreter set-up probe for ``setup_s``.

Imports rabosim, resolves the workload's config, builds its problem and the
first round's RunConfig, then prints ``ready``. The parent times the span
from starting this interpreter to reading that line.

    python3 perfbench/probe.py WORKLOAD SEED TINY(0|1)
"""

import sys

from workloads import SRC, raw_config

sys.path.insert(0, str(SRC))


def main(argv: list[str]) -> int:
    name, seed, tiny = argv[0], int(argv[1]), argv[2] == "1"
    from rabosim import cli

    cfg = cli.resolve_config(raw_config(name, seed, tiny))
    problem = cli.build_problem(cfg.problem)
    table = (cfg.sweep["manual_tables"] or [None])[0]
    cli.build_run_config(cfg.run, problem.n, cfg.run["seed"],
                         cfg.sweep["estimators"][0], cfg.sweep["capacities"][0],
                         table)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
