"""The process entry: `python -m chartab` and the installed `chartab` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command line, then freeze the heap for the interpreter's exit.

    Every object alive once the command has returned moves to the permanent
    generation, so the shutdown collections traverse nothing; the objects are
    still freed by reference counting.  Only the process entry freezes:
    `cli.main` is a library call and leaves its caller's heap alone.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
