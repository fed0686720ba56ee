"""`python -m legscale`: the same entry point as the `legscale` script."""

from .cli import run

if __name__ == "__main__":
    run()
