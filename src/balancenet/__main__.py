"""``python -m balancenet``: the command-line interface of balancenet.cli."""

import sys

from .cli import main

sys.exit(main())
