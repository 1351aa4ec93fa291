"""``python -m reebtrees``: the same command line as the ``reebtrees`` script."""

from .cli import run

if __name__ == "__main__":
    run()
