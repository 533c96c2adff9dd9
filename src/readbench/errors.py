"""Exception types shared across the suite, and the one text of each fault
of an async read loop."""

import os


class ReadBenchError(Exception):
    """Base class for all readbench errors."""


class EmptySampleSet(ReadBenchError):
    """Latency aggregation was asked to summarize zero samples."""


class InvalidInterval(ReadBenchError):
    """A time interval was zero or negative where a positive one is required."""


class ClockError(ReadBenchError):
    """A CPU-time or wall-clock reading went backwards."""


class PrepareError(ReadBenchError):
    """Test-file preparation failed (disk space, permissions, bad size)."""


class VerifyError(ReadBenchError):
    """Read data did not match the expected fill pattern."""

    def __init__(self, offset: int, message: str | None = None):
        self.offset = offset
        super().__init__(message or f"data mismatch at byte offset {offset}")


class IoError(ReadBenchError):
    """A read returned fewer bytes than requested or failed outright."""


#: every fault ``_hotloop.c`` reports, numbered as it reports them: those
#: that end an async read loop (:func:`async_error`, and BAD_DATA, a block
#: that failed the loop's page check, which ``fill.check_blocks`` names),
#: and those of a refused simulated submit, a request outside the device
#: (OUTSIDE) or more queued than ``SimState.pending_bound`` (BACKPRESSURE)
(UNKNOWN_SLOT, BAD_RESULT, RING_OVERFLOW, STALLED, SHORT_SUBMIT, CALL_FAILED,
 BAD_DATA, OUTSIDE, BACKPRESSURE) = range(1, 10)


def async_error(fault: int, a: int, b: int = 0,
                call: str = "") -> IoError | OSError:
    """The error of an async-loop fault, the same on the Python loop and the
    compiled one:

    * UNKNOWN_SLOT: a completion for slot a of a queue of b, none in flight;
    * BAD_RESULT: the read at offset a returned b, bytes or minus an errno;
    * RING_OVERFLOW: the kernel dropped a completions from a full ring;
    * STALLED: no completion came in a ns;
    * SHORT_SUBMIT: ``call`` took a of b reads, or failed with errno -a;
    * CALL_FAILED: ``call`` failed with errno a, an OSError.
    """
    if fault == UNKNOWN_SLOT:
        return IoError(f"completion for unknown slot {a} of {b} "
                       "(no read in flight)")
    if fault == BAD_RESULT:
        return IoError(f"async read at {a} returned {b}")
    if fault == RING_OVERFLOW:
        return IoError(f"completion ring overflowed: {a} completion(s) lost")
    if fault == STALLED:
        return IoError(f"harvest stalled: no completion in {a / 1e9:.1f} s")
    if fault == SHORT_SUBMIT:
        return IoError(f"{call} submitted {max(a, -1)} of {b} reads"
                       + (f": {os.strerror(-a)}" if a < 0 else ""))
    return OSError(a, f"{call} failed: {os.strerror(a)}")


class AlignmentError(ReadBenchError):
    """Offset, length, or buffer violates direct-I/O alignment rules."""


class Backpressure(ReadBenchError):
    """The simulated device's submission queue exceeded its bound."""


class EngineUnsupported(ReadBenchError):
    """The requested engine or engine feature is unavailable on this system."""

    def __init__(self, feature: str, detail: str = ""):
        self.feature = feature
        super().__init__(f"unsupported: {feature}" + (f" ({detail})" if detail else ""))


class AbortedRun(ReadBenchError):
    """A worker failed; the run was aborted with partial results."""


class NoSuchPreset(ReadBenchError):
    """Unknown preset table or device model name."""


class LabelParseError(ReadBenchError):
    """A configuration label string does not match the label grammar."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        super().__init__(f"{message} at position {position} in {text!r}")
