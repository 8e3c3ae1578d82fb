"""`python -m diskdraw`: the command-line interface."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
