"""``python -m funnelcap``: the same command line as the ``funnelcap`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
