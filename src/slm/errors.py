"""Error taxonomy shared across the package.

DataError covers malformed or missing user inputs (exit code 1 from the
CLI); ContractError covers violated API preconditions and FormatError
covers unreadable artifact files (both exit code 2).
"""


class DataError(Exception):
    pass


class ContractError(Exception):
    pass


class FormatError(ContractError):
    pass


class TrainingAbort(Exception):
    """Raised when a training step produces non-finite values."""


def read_text(path: str, what: str) -> str:
    """The whole of a user's UTF-8 text file. A file that cannot be
    opened or decoded is a DataError naming it and ``what`` it holds."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
