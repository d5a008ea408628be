"""``python -m perfbench run|all|repeat|compare`` from the repo root."""

import sys

from perfbench.run import bootstrap

if __name__ == "__main__":
    bootstrap()
    from perfbench.cli import main

    sys.exit(main())
