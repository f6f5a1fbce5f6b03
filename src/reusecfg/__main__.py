"""`python -m reusecfg`: the `reusecfg` command."""

from .cli import main

if __name__ == "__main__":
    main()
