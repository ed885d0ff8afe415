"""Writing output files."""

from pathlib import Path


def write_file(path, data: bytes) -> None:
    """Write ``data`` to ``path`` as a new file, replacing any file there.

    Unlinking the old file, instead of truncating it in place or renaming
    over it, avoids the flush on close that ext4's auto_da_alloc starts
    for both kinds of replace (tens of ms per rewrite).  Nothing is
    fsynced, so a rewrite is exactly as durable as a first write.
    """
    Path(path).unlink(missing_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
