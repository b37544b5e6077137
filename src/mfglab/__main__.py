"""Command-line entry point: ``python -m mfglab <subcommand> CONFIG.yaml``."""

import sys

from .cli_io.main import entrypoint

if __name__ == "__main__":
    sys.exit(entrypoint())
