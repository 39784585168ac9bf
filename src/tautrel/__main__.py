"""python -m tautrel: the command line of tautrel.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
