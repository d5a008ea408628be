"""Entry point of the benchmark driver's contract (see ``BENCHMARK.json``).

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
from the root of a checkout.  Needs no ``PYTHONPATH``: the checkout's
``src/`` is put on the path here, and a directory without it (only
``BENCHMARK.json`` and ``perfbench/``) is refused with a non-zero exit.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bootstrap() -> None:
    """Make ``repro`` and ``perfbench`` importable from this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no system to measure: {ROOT / 'src' / 'repro'} "
                 f"is missing")
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


if __name__ == "__main__":
    bootstrap()
    from perfbench.cli import main

    sys.exit(main(["run", *sys.argv[1:]]))
