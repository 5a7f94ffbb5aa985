"""`python -m kraichnan_lab`: the kraichnan-lab command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
