"""The compiled read loop of the sync, polled and pool engines on real files.

:func:`load` builds ``_hotloop.c`` with the system ``cc`` at first use, never
at import, into ``$XDG_CACHE_HOME/readbench/<CRC-32 of the source>.so`` (default
``~/.cache``): under a temporary name there, then renamed into place, so a
process never loads a library another one is still writing.  Where that
directory is not writable, it builds into a temporary directory of this
process.  Without a compiler the engines time their reads on the Python
loop, and the record says so.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("_hotloop.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")

_ARGTYPES = (ctypes.c_int, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
             ctypes.c_void_p, ctypes.c_long, ctypes.c_int, ctypes.c_int64,
             ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p)


class BuildError(Exception):
    """The loop could not be compiled."""


def _compile(directory: Path, name: str) -> Path:
    """Compile SOURCE to directory/name, through a temporary name there."""
    cc = shutil.which("cc")
    if cc is None:
        raise BuildError("no C compiler: cc is not on PATH")
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            why = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise BuildError(f"cc exited with {proc.returncode}: {why}")
        os.replace(tmp, directory / name)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return directory / name


@functools.cache
def load():
    """(the loop function, its library path), or (None, why it is
    unavailable).  Built once per source and cache directory, loaded once
    per process."""
    try:
        # a CRC, not a cryptographic hash: the cache is the user's own, and
        # hashlib would map the OpenSSL library into every run (~4 MiB RSS)
        key = " ".join(_CFLAGS).encode() + SOURCE.read_bytes()
        name = f"{zlib.crc32(key):08x}.so"
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "readbench"
        path = cache / name
        if not path.exists():
            try:
                path = _compile(cache, name)
            except OSError:  # the cache is not writable: build privately
                private = Path(tempfile.mkdtemp(prefix="readbench-"))
                atexit.register(shutil.rmtree, private, True)
                path = _compile(private, name)
        loop = ctypes.CDLL(str(path)).rb_read_loop
    except (BuildError, OSError, subprocess.SubprocessError) as exc:
        return None, str(exc)
    loop.argtypes, loop.restype = _ARGTYPES, ctypes.c_long
    return loop, str(path)
