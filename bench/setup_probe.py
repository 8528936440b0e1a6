"""Fresh-process set-up path of one workload, timed from outside by run.py.

Imports cptq (and with it numpy and scipy), then parses the first
instance's config and builds its kernel and preferences; for ``price`` it
also loads the law and kernel CSVs.  This is the work a user waits for
before the first operation can start.

    python3 bench/setup_probe.py <workload> <instance dir> <config file>
"""

import os
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload, work, config):
    from cptq import choquet, cli, market

    import workloads

    lib = SimpleNamespace(cli=cli, choquet=choquet, market=market)
    cfg = cli.load_config(os.path.join(work, config))
    cli.build_preferences(cfg)
    if workload == "price":
        choquet.DiscreteLaw.from_csv(os.path.join(work, cfg["law.path"]))
        workloads.load_price_kernel(lib, work, cfg)
    else:
        cli.build_kernel(cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
