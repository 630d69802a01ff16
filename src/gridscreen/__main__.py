"""``python -m gridscreen``: the ``gridscreen`` command line."""

from .cli import main_entry

if __name__ == "__main__":  # importing the module runs nothing
    main_entry()
