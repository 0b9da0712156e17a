"""Exception types and the method-note channel shared across the package.

Each type carries its own exit code and stderr label, which the CLI
reports as ``<label>: <message>`` and returns: configuration problems exit
2, data problems exit 3, numerical failures exit 4. Method notes are
UserWarnings, raised through :func:`note`.
"""

import threading
import warnings
from contextlib import contextmanager

_kept = threading.local()


class BinConformalError(Exception):
    """Base class for errors raised by this package."""

    exit_code = 3
    label = "error"


class ConfigurationError(BinConformalError):
    """Invalid parameters or option combinations."""

    exit_code = 2
    label = "configuration error"


class DataError(BinConformalError):
    """Input data that cannot support the requested computation."""

    exit_code = 3
    label = "data error"


class NumericalError(BinConformalError):
    """Numerical failure such as non-convergence or a singular design."""

    exit_code = 4
    label = "numerical error"


def note(message: str, stacklevel: int = 1) -> None:
    """Raise a method note as ``warnings.warn(message, UserWarning,
    stacklevel)`` would in the caller, or, inside :func:`keep_notes` on
    this thread, append it to that block's list."""
    kept = getattr(_kept, "notes", None)
    if kept is None:
        warnings.warn(message, UserWarning, stacklevel=stacklevel + 1)
    else:
        kept.append(message)


@contextmanager
def keep_notes(kept: list):
    """Append the notes this thread raises inside the block to ``kept``
    instead of warning, so that a caller can raise them in its own order."""
    _kept.notes = kept
    try:
        yield
    finally:
        _kept.notes = None
