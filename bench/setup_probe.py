"""Set-up probe: import the CLI, parse and validate configs, exit.

    python3 bench/setup_probe.py [CONFIG_PATH SCENARIO]...

The runner times this process from spawn to exit; that is the set-up a
user pays on every `bohmlab` invocation before any scenario work starts.
"""

from __future__ import annotations

import sys
from pathlib import Path

from bohmlab import cli


def main(argv: list[str]) -> int:
    for path, scenario in zip(argv[::2], argv[1::2]):
        cli.parse_config(Path(path).read_text(), scenario=scenario)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
