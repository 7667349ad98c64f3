"""Entry point for ``python -m lagwave``."""
import sys

from .cli import main

sys.exit(main())
