"""Exception taxonomy shared across the package.

Two failure families matter to callers: bad inputs (rejected up front,
never repaired) and blown resource envelopes (the type-enumeration cap).
The CLI maps both to exit code 2, so they share a common base.
input_lines reads every input text file (experiment configs, kernel CSVs
and their sidecars), so a file that is missing, a directory, unreadable
or not UTF-8 is bad input too.
"""

from typing import Iterator


class GenboundError(Exception):
    """Base class for every error raised by this package."""


class InputError(GenboundError, ValueError):
    """An argument violates an operation's contract."""


class ResourceLimitError(GenboundError, RuntimeError):
    """A computation would exceed a configured resource cap."""


def input_lines(path: str) -> Iterator[str]:
    """Yield the lines of a UTF-8 text file, as iterating the open file
    does; raise InputError naming the file if it cannot be opened or
    decoded."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
