"""``python -m distsynth``: the ``distsynth`` command line."""
from .cli import entry

entry()
