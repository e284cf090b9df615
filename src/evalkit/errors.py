"""Exception hierarchy shared across the package."""


class EvalkitError(Exception):
    """Base class for all evalkit errors; each subclass's `exit_code` is the
    status the CLI exits with when one escapes a command."""


class ConfigError(EvalkitError):
    """Invalid configuration: bad flags, malformed config/rules files, bad regex."""

    exit_code = 1


class DataError(EvalkitError):
    """Invalid input data: corpus parse failures, constraint violations."""

    exit_code = 2


class CheckerError(EvalkitError):
    """Syntax-checker infrastructure failure (binary missing, sandbox error).

    Distinct from a snippet failing the check, which is a score of 0.
    """

    exit_code = 3
