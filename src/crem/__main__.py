"""Run the crem command line with ``python -m crem``."""

from .cli import script_main

if __name__ == "__main__":
    script_main()
