"""Entry point for ``python -m bconstell``; the same CLI as ``bconstell``."""

import sys

from .cli import main

sys.exit(main())
