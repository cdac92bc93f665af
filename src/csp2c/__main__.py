"""`python -m csp2c`: the same command line as the `csp2c` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
