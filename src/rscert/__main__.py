"""``python -m rscert``: the command-line tool (see ``rscert.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
