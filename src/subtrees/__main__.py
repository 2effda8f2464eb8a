"""``python -m subtrees``: the same command line as the ``subtrees`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
