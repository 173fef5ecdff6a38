"""`python -m bmlab ...` runs the bmlab command line."""

import sys

from .cli import main

sys.exit(main())
