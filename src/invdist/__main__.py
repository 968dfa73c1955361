"""``python -m invdist``: the same command line as the ``invdist`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
