"""`python -m lvset`: the same command line as the `lvset` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
