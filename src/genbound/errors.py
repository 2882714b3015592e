"""Exception taxonomy shared across the package, and the input readers.

Two failure families matter to callers: bad inputs (rejected up front,
never repaired) and blown resource envelopes (the type-enumeration cap).
The CLI maps both to exit code 2, so they share a common base.
input_lines reads every input text file (experiment configs, kernel CSVs
and their sidecars), so a file that is missing, a directory, unreadable
or not UTF-8 is bad input too. Configs and kernel sidecars share one
key=value grammar, read by read_key_values and key_number.
"""

import math
from typing import Collection, Iterable, Iterator, Mapping


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


def read_key_values(path: str, lines: Iterable[str], allowed: Collection[str],
                    required: Iterable[str]) -> dict[str, tuple[int, str]]:
    """Map each key in the `lines` of the key=value file `path` to its line
    number and the raw text after its first '='. Blank lines are skipped;
    a line without '=', a key not `allowed` or given twice, and a missing
    `required` key raise InputError naming the file (and the line)."""
    fields: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(lines, start=1):
        key, eq, value = line.rstrip("\n").partition("=")
        key = key.strip()
        if not eq:
            if key:
                raise InputError(f"{path}: line {lineno} is not key=value: {key!r}")
            continue
        if key not in allowed:
            raise InputError(f"{path}: unknown key {key!r} on line {lineno}")
        if key in fields:
            raise InputError(f"{path}: duplicate key {key!r} on line {lineno}")
        fields[key] = (lineno, value)
    for key in required:
        if key not in fields:
            raise InputError(f"{path}: missing required key {key!r}")
    return fields


def key_number(path: str, fields: Mapping[str, tuple[int, str]], key: str,
               kind: type = float) -> float:
    """The value of `key` in read_key_values' `fields`, as an int (kind=int)
    or a finite float; InputError names the file, the key and its line."""
    if key not in fields:
        raise InputError(f"{path}: missing required key {key!r}")
    lineno, text = fields[key]
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InputError(f"{path}: {key} on line {lineno} must be {noun}, "
                         f"got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise InputError(f"{path}: {key} on line {lineno} must be finite, "
                         f"got {text!r}")
    return value
