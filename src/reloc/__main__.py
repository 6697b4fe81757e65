"""`python -m reloc ...` runs the `reloc` command line without installing it."""

import sys

from .cli import main

sys.exit(main())
