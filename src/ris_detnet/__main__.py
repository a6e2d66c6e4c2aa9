"""``python -m ris_detnet``: the same command line as the ris-detnet script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
