"""`python -m pchaos ...`: the same command line as the `pchaos` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
