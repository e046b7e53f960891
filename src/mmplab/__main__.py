"""``python -m mmplab ...``: the mmplab command without an installed script."""

import sys

from .cli import main

sys.exit(main())
