"""``python -m bdris``: the ``bdris`` command without an installed entry point."""

import sys

from .cli import main

sys.exit(main())
