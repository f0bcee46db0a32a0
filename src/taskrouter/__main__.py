"""``python -m taskrouter``: the command-line interface, as the installed
``taskrouter`` console script runs it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
