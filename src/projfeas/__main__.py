"""``python -m projfeas``: the command-line entry point of ``projfeas.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
