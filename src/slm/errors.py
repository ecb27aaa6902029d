"""Error taxonomy shared across the package.

DataError covers malformed or missing user inputs (exit code 1 from the
CLI); ContractError covers violated API preconditions and FormatError
covers unreadable artifact files (both exit code 2). Also the file
helpers ``read_text`` and ``write_atomic``.
"""
import os


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


def write_atomic(path: str, write) -> None:
    """Write ``path`` by ``write(fh)`` into a synced temporary file that
    is renamed into place, then sync the directory: a failed,
    interrupted or power-cut write leaves the old file or none. An
    ``OSError`` that names no file, such as a full disk, is raised
    again naming ``path``."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is None:
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise
