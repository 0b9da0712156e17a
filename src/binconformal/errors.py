"""Exception types shared across the package.

Each type carries its own exit code and stderr label, which the CLI
reports as ``<label>: <message>`` and returns: configuration problems exit
2, data problems exit 3, numerical failures exit 4.
"""


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
